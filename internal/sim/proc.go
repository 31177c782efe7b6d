package sim

import "fmt"

// Proc is a simulated process: an iter.Pull coroutine (see pull) whose
// execution is interleaved with all other processes under the engine's
// control. Each switch goes straight between the scheduler's goroutine and
// the body's, never through the Go scheduler. Two consequences: a blocking
// method (Wait, Recv, resource acquisition) called from outside the body
// panics inside iter.Pull, and a body that calls runtime.Goexit (t.FailNow,
// say) exits the goroutine that resumed it — Run's caller on a serial
// engine, the domain's worker on a sharded one. Race builds trade control
// over channels instead (pull_race.go), where neither holds.
type Proc struct {
	eng  *Engine
	id   int
	name string

	// next resumes the body until it blocks or returns; suspend hands
	// control back from the body; stop unwinds a body that will never be
	// resumed (release). All three are nil once the body has returned, so a
	// finished process pins no coroutine state.
	next    func() (struct{}, bool)
	suspend func(struct{}) bool
	stop    func()

	// parked plus the intrusive list links are the engine's blocked-process
	// bookkeeping (see Engine.park/unpark): a state flag and two pointer
	// writes per block instead of a map insert/delete.
	parked     bool
	prevParked *Proc
	nextParked *Proc
}

// Spawn starts fn as a new simulated process at the current simulated time.
// The name is used only in diagnostics. Spawn may be called before Run (to
// seed the simulation) or from inside any event or process.
func (e *Engine) Spawn(name string, fn func(p *Proc)) *Proc {
	e.procSeq++
	p := &Proc{eng: e, id: e.procSeq, name: name}
	p.next, p.stop = pull(func(yield func(struct{}) bool) {
		p.suspend = yield
		fn(p)
	})
	// The body starts inside an event so that process startup is ordered
	// with respect to every other event in the simulation.
	e.schedProc(e.now, evResume, p)
	return p
}

// run resumes the process and returns when it blocks or finishes. A panic
// in the body is re-raised here by pull, so it reaches Run's caller
// (or a sharded worker's recover) with the original value.
func (p *Proc) run() {
	if _, ok := p.next(); !ok {
		p.next, p.suspend, p.stop = nil, nil, nil
	}
}

// block suspends the calling process and returns when some event resumes
// it. This is the single resume path every blocking primitive funnels
// through: one coroutine switch each way and no allocation per block. A
// process released instead of resumed unwinds from here.
func (p *Proc) block() {
	if !p.suspend(struct{}{}) {
		panic(released{})
	}
}

// released is the panic that unwinds a released process's body.
type released struct{}

// release unwinds the body of a process that will never be resumed, so its
// coroutine does not outlive the run: a body that never started does not
// run, and a blocked one panics released at its block point. stop
// re-raises that panic, or any other the body raises on its way out; both
// are dropped, since the run is already failing.
func (p *Proc) release() {
	defer func() { _ = recover() }()
	if p.stop != nil {
		p.stop()
	}
}

// yield parks the calling process. The scheduler resumes it when some event
// calls wake.
func (p *Proc) yield() {
	p.eng.park(p)
	p.block()
}

// wake schedules the process to resume at the current simulated time. It
// must only be called while the process is parked in yield.
func (p *Proc) wake() {
	p.eng.unpark(p)
	p.eng.schedProc(p.eng.now, evResume, p)
}

// Engine returns the engine this process belongs to.
func (p *Proc) Engine() *Engine { return p.eng }

// Now reports the current simulated time.
func (p *Proc) Now() Time { return p.eng.now }

// Name returns the diagnostic name given at Spawn.
func (p *Proc) Name() string { return p.name }

// ID returns the unique process id (1-based, in spawn order).
func (p *Proc) ID() int { return p.id }

// Wait blocks the process for d simulated seconds. A zero wait still yields
// to the scheduler, so Wait(0) can be used to let same-time events interleave
// deterministically.
func (p *Proc) Wait(d Time) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: process %q waiting invalid duration %.9g", p.name, d))
	}
	p.eng.park(p)
	p.eng.schedProc(p.eng.now+d, evTimer, p)
	p.block()
}

// WaitUntil blocks the process until the absolute simulated time at, which
// must not be in the past.
func (p *Proc) WaitUntil(at Time) {
	if !(at >= p.eng.now) {
		panic(fmt.Sprintf("sim: process %q waiting until %.9g which is before now %.9g", p.name, at, p.eng.now))
	}
	p.Wait(at - p.eng.now)
}

// Condition is a broadcast wakeup point: processes block on Await until some
// other process or event calls Broadcast. Unlike sync.Cond there is no
// associated lock — the engine's single-threaded execution model makes the
// state transitions atomic already.
type Condition struct {
	waiters []*Proc
}

// Await parks the process until the next Broadcast.
func (c *Condition) Await(p *Proc) {
	c.waiters = append(c.waiters, p)
	p.yield()
}

// Broadcast wakes every process currently parked on the condition, in the
// order they arrived. The waiters slice keeps its capacity across rounds:
// wake only schedules resume events (no waiter runs, so none can re-Await,
// until Broadcast returns), which makes reusing the backing array safe.
func (c *Condition) Broadcast() {
	ws := c.waiters
	c.waiters = c.waiters[:0]
	for i, w := range ws {
		ws[i] = nil // drop the reference so the reused slot doesn't pin w
		w.wake()
	}
}

// Waiting reports how many processes are parked on the condition.
func (c *Condition) Waiting() int { return len(c.waiters) }
