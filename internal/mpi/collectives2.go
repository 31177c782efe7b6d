package mpi

// Additional collectives: ReduceScatter and Scan (exclusive prefix is not
// provided; MPI_Scan is inclusive). POP's production configurations use
// ReduceScatter-based allreduce variants, and these complete the
// collective surface a downstream user expects from an MPI-like runtime.

// Internal tags continue the sequence from mpi.go.
const (
	tagReduceScatter = -100 - iota
	tagScan
)

// ReduceScatter combines data from all ranks with op and leaves rank i
// with element block i. For the size-only form, bytesEach is the per-rank
// result block size. The algorithmic form is the pairwise-exchange
// (halving-distance) algorithm; the result slice (length len(data)/n,
// rounded down) is returned when data is non-nil.
func (p *P) ReduceScatter(op Op, bytesEach int64, data []float64) []float64 {
	start := p.opBegin(OpReduce)
	defer p.opEnd(OpReduce, start)
	n := len(p.c.group)
	if n == 1 {
		return cloneFloats(data)
	}
	if p.useAnalytic() {
		p.logDepth(bytesEach)
		full := p.accumulateShared(op, data)
		return scatterBlock(full, p.me, n)
	}
	// Reduce then scatter through shared state for the data, with the
	// cost carried by an explicit pairwise exchange: each of the n-1
	// rounds moves bytesEach (the steady-state block volume of the
	// halving algorithm).
	acc := cloneFloats(data)
	for i := 1; i < n; i++ {
		dst := (p.me + i) % n
		src := (p.me - i + n) % n
		sreq := p.isendData(dst, tagReduceScatter, bytesEach, nil)
		p.Recv(src, tagReduceScatter)
		p.wait1(sreq)
	}
	full := p.accumulateShared(op, acc)
	return scatterBlock(full, p.me, n)
}

func scatterBlock(full []float64, rank, n int) []float64 {
	if full == nil {
		return nil
	}
	block := len(full) / n
	if block == 0 {
		return nil
	}
	out := make([]float64, block)
	copy(out, full[rank*block:(rank+1)*block])
	return out
}

// Scan computes the inclusive prefix reduction: rank i receives the
// combination of ranks 0..i. Linear-chain algorithm (latency n·alpha,
// matching small communicators; production MPIs use the same for small n).
func (p *P) Scan(op Op, bytes int64, data []float64) []float64 {
	start := p.opBegin(OpReduce)
	defer p.opEnd(OpReduce, start)
	n := len(p.c.group)
	acc := cloneFloats(data)
	if n == 1 {
		return acc
	}
	if p.useAnalytic() {
		p.logDepth(bytes)
		// The last arrival folds every rank's prefix left to right through
		// the meet (cost already charged); each rank takes its own.
		m := p.meet(nil, func(m *meet) { m.put(p.me, n, data) }, func(m *meet) {
			var prefix []float64
			for r, d := range m.data {
				if d == nil {
					continue
				}
				if prefix == nil {
					prefix = cloneFloats(d)
				} else {
					prefix = cloneFloats(prefix)
					op.combine(prefix, d)
				}
				m.data[r] = prefix
			}
		})
		if data == nil {
			return nil
		}
		return m.data[p.me]
	}
	// Chain: receive prefix from the left, combine, pass to the right.
	if p.me > 0 {
		env := p.Recv(p.me-1, tagScan)
		if acc != nil && env.Data != nil {
			op.combine(acc, env.Data)
		}
		p.releasePayload(env.Data)
	}
	if p.me < n-1 {
		p.sendData(p.me+1, tagScan, bytes, acc)
	}
	return acc
}
