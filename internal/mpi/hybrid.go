package mpi

import "xtsim/internal/sim"

// Hybrid rank runtime (DESIGN.md §4i): when the system's engine plan
// admitted the run to the hybrid fast path, every rank keeps its simulated
// time in a private clock (core.HybClock) instead of on an engine. Sends
// are priced by the world's network.HybridSession (exact ledger replay or
// the uncontended closed form), receives match against a per-view pending
// list, and shared-state collectives run the DES's own meet (mpi.go).
// core.System.Run still spawns every rank as a coroutine, on a private
// engine whose clock stays at 0: a receive that finds nothing parks on its
// view's condition and a meet arriver on the meet's, and the engine is
// only the deterministic FIFO run queue that resumes them. No event heap
// orders their timing and no resource is booked on an engine, which is
// where the wall-clock win comes from.
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

// hybMsg is one delivered-but-unconsumed message.
type hybMsg struct {
	at  sim.Time
	env Envelope
}

// hybView is a rank's per-communicator pending-message list, the hybrid
// stand-in for the matching table + mailboxes. A linear first-match scan is
// exact: deposits from one sender land in that sender's program order, so
// per-(src,tag) FIFO — the DES mailbox guarantee — is preserved.
type hybView struct {
	pend []hybMsg
	// deposited wakes the owner, parked in hybRecv, on every deposit.
	deposited sim.Condition
}

// hybRecv blocks until a message with the given source and tag is pending,
// removes it preserving order, and advances the clock to its arrival time
// (the DES resumes the blocked proc at exactly the arrival event's time;
// the comparison covers the already-arrived case, where the DES proc does
// not move).
func (p *P) hybRecv(src, tag int) Envelope {
	v := p.hyb
	for {
		for i := range v.pend {
			if m := v.pend[i]; m.env.Src == src && m.env.Tag == tag {
				v.pend = append(v.pend[:i], v.pend[i+1:]...)
				if clk := p.task.HybClock(); m.at > clk.T {
					clk.T = m.at
				}
				return m.env
			}
		}
		v.deposited.Await(p.task.Proc)
	}
}

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
	v := p.c.members[dst].hyb
	v.pend = append(v.pend, hybMsg{
		at:  tl.Arrive,
		env: Envelope{Src: p.me, Tag: tag, Bytes: bytes, Data: p.clonePayload(data)},
	})
	v.deposited.Broadcast()
	req := p.newSendReq()
	req.done = true
	req.ready = tl.Injected
	return req
}
