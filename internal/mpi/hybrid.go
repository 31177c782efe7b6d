package mpi

import (
	"sync"
	"sync/atomic"

	"xtsim/internal/core"
	"xtsim/internal/network"
	"xtsim/internal/sim"
)

// Hybrid rank runtime (DESIGN.md §4i): when the system's engine plan
// admitted the run to the hybrid fast path, every rank advances a private
// clock (core.HybClock) instead of a goroutine-per-rank DES process. Sends
// are priced by the fabric's HybridSession (exact ledger replay or the
// uncontended closed form), receives match against a per-rank pending
// list, and shared-state collectives run the DES's own meet (mpi.go),
// parking on a channel instead of a sim.Condition. Ranks still get one
// goroutine each, but they free-run in parallel across OS threads with no
// event heap, no engine serialisation, and no simulated context switches —
// which is where the wall-clock win comes from.
//
// The exact tier aborts the whole run the moment anything unpriceable
// appears (a link shared by two ranks' routes): hybAbort unwinds every
// rank, the session's private ledger is dropped, and Run re-executes the
// body on the untouched DES. Nothing observable is produced before the
// abort, so "promoted before any timing divergence" holds for the whole
// run, which is the only granularity at which replayed reservations stay
// bit-identical.

// hybAbort is the panic payload that unwinds a rank goroutine when the
// hybrid run aborts. Every blocking point selects on hybRun.abort.
type hybAbort struct{}

// hybRun is the shared state of one hybrid execution attempt.
type hybRun struct {
	sess *network.HybridSession

	// abort is closed exactly once, when a rank trips the exact ledger or
	// panics; every blocking point selects on it, so parked ranks unwind.
	abort chan struct{}
	once  sync.Once

	// panicked is the first rank panic other than hybAbort, re-raised on
	// Run's caller once every rank has unwound — where the DES raises a
	// process panic too.
	panicked atomic.Pointer[any]
}

func (h *hybRun) fail() { h.once.Do(func() { close(h.abort) }) }

// hybTask is one rank's hybrid execution context.
type hybTask struct {
	run *hybRun
	clk *core.HybClock
	// wake is the rank's wakeup channel (buffered 1 so a deposit racing
	// with the block registration is never lost); the rank registers it on
	// its communicator view before blocking in hybRecv.
	wake chan struct{}
	// horizon is the latest message-arrival time this rank caused: the DES
	// makespan includes arrival events of messages nobody consumed, so the
	// hybrid end time must too.
	horizon   sim.Time
	sentMsgs  uint64
	sentBytes uint64
}

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
	mu   sync.Mutex
	pend []hybMsg
	// wait is the owner's wake channel while it blocks (nil otherwise).
	wait chan struct{}
}

func (v *hybView) deposit(m hybMsg) {
	v.mu.Lock()
	v.pend = append(v.pend, m)
	ch := v.wait
	v.mu.Unlock()
	if ch != nil {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// hybRecv blocks until a message with the given source and tag is pending,
// removes it preserving order, and advances the clock to its arrival time
// (the DES resumes the blocked proc at exactly the arrival event's time;
// max() covers the already-arrived case, where the DES proc does not move).
func (p *P) hybRecv(src, tag int) Envelope {
	t := p.hyb
	v := p.hybV
	for {
		v.mu.Lock()
		for i := range v.pend {
			if v.pend[i].env.Src == src && v.pend[i].env.Tag == tag {
				m := v.pend[i]
				v.pend = append(v.pend[:i], v.pend[i+1:]...)
				v.mu.Unlock()
				if m.at > t.clk.T {
					t.clk.T = m.at
				}
				return m.env
			}
		}
		v.wait = t.wake
		v.mu.Unlock()
		select {
		case <-t.wake:
		case <-t.run.abort:
			panic(hybAbort{})
		}
	}
}

// hybIsend prices the transfer on the session and deposits the envelope at
// the receiver, stamped with its arrival time. An exact-ledger violation
// aborts the whole run. The payload is privately cloned (the domain payload
// pool is not safe under concurrent rank goroutines).
func (p *P) hybIsend(dst, tag int, bytes int64, data []float64) *Request {
	t := p.hyb
	dstTask := p.global(dst)
	tl, ok := t.run.sess.Price(t.clk.T, p.msg(dstTask, bytes), p.task.ID)
	if !ok {
		t.run.fail()
		panic(hybAbort{})
	}
	t.sentMsgs++
	t.sentBytes += uint64(bytes)
	if tl.Arrive > t.horizon {
		t.horizon = tl.Arrive
	}
	p.c.members[dst].hybV.deposit(hybMsg{
		at:  tl.Arrive,
		env: Envelope{Src: p.me, Tag: tag, Bytes: bytes, Data: cloneFloats(data)},
	})
	req := p.newSendReq()
	req.done = true
	req.ready = tl.Injected
	return req
}

// tryHybrid attempts a whole run on the hybrid fast path. ok=false means
// the exact ledger aborted mid-run and the DES must run instead; the fabric
// is untouched (the session ledger is private and counters commit only on
// success), so the DES re-run starts pristine. A rank's panic aborts the
// run too, and is re-raised here without a DES re-run.
func tryHybrid(sys *core.System, mode CollectiveMode, body func(p *P)) (sim.Time, bool) {
	sess := sys.Fabric.BeginHybrid(sys.HybridTier() == core.HybridExact)
	w := NewWorld(sys)
	w.CollMode = mode
	run := &hybRun{sess: sess, abort: make(chan struct{})}
	w.hyb = run
	comm := w.newComm(identity(sys.NumTasks))

	n := sys.NumTasks
	tasks := make([]*hybTask, n)
	var wg sync.WaitGroup
	wg.Add(n)
	for i := 0; i < n; i++ {
		go func(id int) {
			defer wg.Done()
			defer func() {
				if r := recover(); r != nil {
					if _, ok := r.(hybAbort); !ok {
						run.panicked.CompareAndSwap(nil, &r)
						run.fail()
					}
				}
			}()
			r := sys.HybridRank(id)
			t := &hybTask{run: run, clk: r.HybClock(), wake: make(chan struct{}, 1)}
			tasks[id] = t
			p := comm.view(r)
			p.hyb = t
			body(p)
		}(i)
	}
	wg.Wait()

	if r := run.panicked.Load(); r != nil {
		panic(*r)
	}
	if violated, why := sess.Violated(); violated {
		sys.AbortHybrid(why)
		return 0, false
	}

	// The DES makespan is the last event's time: rank finish times
	// (WaitUntil/compute events), plus arrival events of messages that were
	// delivered but never consumed — the per-task horizon.
	var end sim.Time
	for _, t := range tasks {
		if t == nil {
			continue
		}
		if t.clk.T > end {
			end = t.clk.T
		}
		if t.horizon > end {
			end = t.horizon
		}
		w.SentMsgs += t.sentMsgs
		w.SentBytes += t.sentBytes
	}
	sess.Commit()
	w.FoldStats()
	w.Finalize()
	return end, true
}
