package mpi

import "xtsim/internal/sim"

// Message matching (DESIGN.md §4d), one path for both runtimes: each
// rank's per-communicator P keeps a pending list of delivered but not yet
// received messages in arrival order, and a receive takes the first entry
// from its (source, tag). Messages from one sender arrive in that sender's
// program order, so the first-match scan delivers each (source, tag) flow
// in FIFO order. The list lives on the receiver's per-communicator P, which
// gives every Split communicator an isolated tag space, and it holds
// only what is in flight: the -short campaign's receives examine 1.27
// entries on average and never more than 22, so a linear scan needs no
// per-sender index, and a rank's matching heap is its high-water pending
// count, not the communicator size.

// pending is one delivered-but-unreceived message, stamped with its
// arrival time.
type pending struct {
	at  sim.Time
	env Envelope
}

// deposit appends env, which arrived at at, to p's pending list. A DES
// flight calls it from its arrival event, on the receiver's own domain;
// a hybrid send calls it directly. It wakes p's parked receive only when
// env is the message that receive waits for, so a parked rank resumes once
// per receive, not once per arrival.
func (p *P) deposit(at sim.Time, env Envelope) {
	p.pend = append(p.pend, pending{at: at, env: env})
	if p.recvReady.Waiting() > 0 && env.Src == p.wantSrc && env.Tag == p.wantTag {
		p.recvReady.Broadcast()
	}
}

// match blocks until a message from src with tag is pending, removes the
// first such message and returns it. A hybrid rank's clock then advances
// to the arrival time, where the DES resumes a rank that blocked; a
// message that arrived earlier leaves the clock alone on both runtimes.
func (p *P) match(src, tag int) Envelope {
	for {
		for i := range p.pend {
			m := p.pend[i]
			if m.env.Src != src || m.env.Tag != tag {
				continue
			}
			last := len(p.pend) - 1
			copy(p.pend[i:], p.pend[i+1:])
			p.pend[last] = pending{} // pin no stale payload
			p.pend = p.pend[:last]
			if clk := p.task.HybClock(); clk != nil && m.at > clk.T {
				clk.T = m.at
			}
			return m.env
		}
		p.wantSrc, p.wantTag = src, tag
		p.recvReady.Await(p.task.Proc)
	}
}
