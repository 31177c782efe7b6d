package mpi

// Ring (reduce-scatter + allgather) Allreduce — the bandwidth-optimal
// algorithm production MPIs select for large payloads, versus the
// latency-optimal recursive doubling used for small ones. Cray's MPT made
// exactly this choice; exposing both lets the ablation quantify where the
// crossover falls on the SeaStar, and why the 8–16-byte Allreduces of
// POP's barotropic phase always take the recursive-doubling path.

const tagRing = -200

// AllreduceRing performs the same reduction as Allreduce using the ring
// algorithm: n−1 reduce-scatter steps then n−1 allgather steps, each
// moving bytes/n per neighbour hop. Total data moved per rank is
// 2·bytes·(n−1)/n (bandwidth-optimal) at the cost of 2(n−1) latency terms.
func (p *P) AllreduceRing(op Op, bytes int64, data []float64) []float64 {
	start := p.opBegin(OpAllreduce)
	defer p.opEnd(OpAllreduce, start)
	n := len(p.c.group)
	if n == 1 {
		return cloneFloats(data)
	}
	chunk := bytes / int64(n)
	if chunk < 1 {
		chunk = 1
	}
	right := (p.me + 1) % n
	left := (p.me - 1 + n) % n

	// Cost: 2(n-1) neighbour exchanges of one chunk each. Data semantics:
	// combine contributions via shared state (the wire cost above is the
	// authoritative model; element-exact chunk routing would add nothing
	// to fidelity).
	for step := 0; step < n-1; step++ { // reduce-scatter phase
		sreq := p.isendData(right, tagRing, chunk, nil)
		p.Recv(left, tagRing)
		p.wait1(sreq)
	}
	for step := 0; step < n-1; step++ { // allgather phase
		sreq := p.isendData(right, tagRing, chunk, nil)
		p.Recv(left, tagRing)
		p.wait1(sreq)
	}
	return p.accumulateShared(op, data)
}
