package mpi

import (
	"xtsim/internal/sim"
	"xtsim/internal/timeline"
)

// Hot-path pooling (DESIGN.md §4d): in-flight arrival records, requests,
// and payload slabs are all recycled so a steady-state Send/Recv pair, a
// nonblocking Isend/Irecv/Wait exchange, and the algorithmic collectives
// built on them allocate nothing.
//
// The pools are sharded per scheduling domain (one wpool per slab under
// the parallel engine, a single pool in serial mode, DESIGN.md §4h): a
// rank only ever touches the pool of the domain its node lives in, so the
// free lists need no locks under the sharded scheduler and keep their
// zero-allocation steady state.

// wpool is one scheduling domain's private pool, send counters and
// observer probe. Each is touched only by that domain's worker goroutine
// (serial and hybrid runs: the one engine's); the trailing pad keeps
// adjacent domains' hot fields off one cache line.
type wpool struct {
	freeFlights *flight
	payload     [][]float64
	sentMsgs    uint64
	sentBytes   uint64
	// probe is the domain's observer, the one its fabric ledger holds; nil
	// while no observer is on.
	probe *timeline.Probe
	_     [5]uint64
}

// flight is the arrival record of one in-flight eager message. It
// implements sim.Arriver, so Fabric.Deliver needs no per-send closure, and
// it recycles itself as soon as it has deposited its envelope in the
// receiver's pending list. Arrive executes on the *receiver's* domain
// engine, so the pending list (and the pool the flight recycles into) are
// always touched from the domain that owns them.
type flight struct {
	dst  *P
	env  Envelope
	next *flight
}

// Arrive deposits the envelope at message-arrival time.
func (f *flight) Arrive(at sim.Time) {
	dst, env := f.dst, f.env
	f.dst = nil
	f.env = Envelope{}
	pool := dst.pool
	f.next = pool.freeFlights
	pool.freeFlights = f
	dst.deposit(at, env)
}

// newFlight pops an arrival record from the sender's domain pool (flights
// recycle into the receiving domain's pool, so under the sharded scheduler
// records migrate with the traffic — steady bidirectional flows stay
// balanced and allocation-free).
func (p *P) newFlight(dst *P, env Envelope) *flight {
	pool := p.pool
	f := pool.freeFlights
	if f == nil {
		f = &flight{}
	} else {
		pool.freeFlights = f.next
		f.next = nil
	}
	f.dst = dst
	f.env = env
	return f
}

// newReq pops a recycled request from the rank's free list, or allocates
// the next one. Wait returns every completed request, send or receive, to
// the waiting rank's list. Reuse resets the whole request and keeps only
// its condition's waiter array: a field left from the last use (a
// receive's owner, a hybrid send's ready time) would otherwise change what
// Wait does with the next one.
func (p *P) newReq() *Request {
	r := p.freeReqs
	if r == nil {
		return &Request{}
	}
	p.freeReqs = r.next
	*r = Request{cond: r.cond}
	return r
}

// clonePayload copies data into a slab drawn from the calling rank's
// domain pool. A nil payload (size-only message) stays nil and never
// touches the pool.
func (p *P) clonePayload(d []float64) []float64 {
	if d == nil {
		return nil
	}
	n := len(d)
	pool := p.pool.payload
	for i := len(pool) - 1; i >= 0; i-- {
		if cap(pool[i]) >= n {
			s := pool[i][:n]
			last := len(pool) - 1
			pool[i] = pool[last]
			pool[last] = nil
			p.pool.payload = pool[:last]
			copy(s, d)
			return s
		}
	}
	out := make([]float64, n)
	copy(out, d)
	return out
}

// releasePayload returns a received slab to the receiving rank's domain
// pool. Call only at combine-and-drop receive sites; slabs retained by the
// application (Bcast data, Allreduce unfold results, user-level Recv)
// simply leave the pool.
func (p *P) releasePayload(s []float64) {
	if cap(s) > 0 {
		p.pool.payload = append(p.pool.payload, s[:0])
	}
}
