package mpi

// Hybrid rank runtime (DESIGN.md §4i): when the system's engine plan
// admitted the run to the hybrid fast path, every rank keeps its simulated
// time in a private clock (core.HybClock) instead of on an engine. Sends
// are priced by the world's network.HybridSession (exact ledger replay or
// the uncontended closed form) and deposited straight into the receiver's
// pending list; receives and shared-state collectives run the DES's own
// matching (matching.go) and meet (mpi.go). core.System.Run still spawns
// every rank as a coroutine, on a private engine whose clock stays at 0: a
// receive that finds nothing parks on its P's condition and a meet arriver
// on the meet's, and the engine is only the deterministic FIFO run queue
// that resumes them. No event heap orders their timing and no resource is
// booked on an engine, which is where the wall-clock win comes from.
//
// The exact tier aborts the whole run the moment anything unpriceable
// appears (a link shared by two ranks' routes): hybIsend panics hybAbort
// before the contested reservation is booked, the engine releases every
// other rank, the session's private ledger is dropped, and Run
// re-executes the body on the untouched DES. Nothing observable is
// produced before the abort, so "promoted before any timing divergence"
// holds for the whole run, which is the only granularity at which
// replayed reservations stay bit-identical.

// hybAbort is the panic that unwinds a hybrid run when the exact ledger
// trips; run (mpi.go) absorbs it.
type hybAbort struct{}

// hybIsend prices the transfer on the session and deposits the envelope at
// the receiver, stamped with its arrival time. An exact-ledger violation
// aborts the whole run.
func (p *P) hybIsend(dst, tag int, bytes int64, data []float64) *Request {
	w := p.c.w
	tl, ok := w.sess.Price(p.task.Now(), p.msg(p.global(dst), bytes), p.task.ID)
	if !ok {
		panic(hybAbort{})
	}
	p.pool.sentMsgs++
	p.pool.sentBytes += uint64(bytes)
	if tl.Arrive > w.horizon {
		w.horizon = tl.Arrive
	}
	p.c.members[dst].deposit(tl.Arrive, Envelope{Src: p.me, Tag: tag, Bytes: bytes, Data: p.clonePayload(data)})
	req := p.newReq()
	req.done = true
	req.ready = tl.Injected
	return req
}
