// Package sim implements a deterministic, process-oriented discrete-event
// simulation engine.
//
// The engine is the substrate for the whole Cray XT3/XT4 system model: node
// memory subsystems, NICs, torus links, and MPI ranks are all simulated
// processes or resources living on one simulated clock.
//
// Processes are ordinary Go functions run as iter.Pull coroutines, and at
// most one executes at any instant: a process runs until it blocks on a
// simulation primitive (Wait, Condition.Await, resource acquisition), at
// which point it switches straight back to the scheduler. This makes
// simulations fully deterministic — event ordering is defined by (time,
// sequence number), never by the Go runtime scheduler — which is essential
// for reproducible performance experiments.
//
// The scheduling hot path is allocation-free in steady state: events are
// values in a 4-ary min-heap whose backing array doubles as a free list
// (popped slots are zeroed and reused by later pushes), and process timers
// and wakeups are dispatched through a typed event kind rather than a
// per-wake closure. See DESIGN.md ("Engine hot path") for the invariants.
package sim

import (
	"fmt"
	"math"
	"sort"
	"sync/atomic"
)

// Time is a simulated timestamp in seconds since the start of the run.
type Time = float64

// Infinity is a sentinel time later than any event the engine will ever
// schedule. Resources use it to mark "no pending completion".
const Infinity Time = math.MaxFloat64

// Event dispatch kinds. Process timers and wakeups carry the *Proc in the
// event itself instead of capturing it in a closure, which is what keeps
// Wait/Recv allocation-free.
const (
	evFunc   uint8 = iota // call the wrapped closure (rides in arr)
	evTimer               // a Wait deadline: unpark proc, transfer control
	evResume              // a wake or a spawn: transfer control
	evArrive              // dispatch arr.Arrive(at): a typed completion callback
)

// event is a single scheduled callback. Events with equal timestamps fire in
// the order they were scheduled (seq breaks ties), which keeps runs
// reproducible.
//
// The struct is kept at five words because the heap moves events by value:
// the dispatch kind rides in the low two bits of seqKind (seq<<2 | kind
// orders identically to seq, since seq is unique per event), and evFunc
// closures ride in the arr slot (funcEvent is pointer-shaped, so the
// interface conversion allocates nothing).
type event struct {
	at      Time
	seqKind uint64  // scheduling sequence << kindBits | event kind
	proc    *Proc   // evTimer/evResume payload
	arr     Arriver // evFunc/evArrive payload
}

// kindBits is how far seqKind shifts the sequence number to make room for
// the event kind.
const kindBits = 2

// funcEvent adapts an argument-less closure to the Arriver slot of an event.
type funcEvent func()

// Arrive calls f.
func (f funcEvent) Arrive(Time) { f() }

// eventQueue is a 4-ary min-heap of event values ordered by (at, seq). A
// 4-ary layout halves the tree depth of a binary heap and keeps siblings on
// one cache line; storing events by value (not *event) means a push performs
// no per-event allocation once the backing array has grown to the
// simulation's high-water mark. pop zeroes the vacated slot, so the array
// tail beyond len() is a free list of reusable slots holding no stale
// references.
type eventQueue struct {
	ev []event
}

func (q *eventQueue) len() int { return len(q.ev) }

// less orders the heap by timestamp, then scheduling sequence.
func (q *eventQueue) less(i, j int) bool {
	a, b := &q.ev[i], &q.ev[j]
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seqKind < b.seqKind
}

func (q *eventQueue) push(ev event) {
	q.ev = append(q.ev, ev)
	i := len(q.ev) - 1
	for i > 0 {
		parent := (i - 1) / 4
		if !q.less(i, parent) {
			break
		}
		q.ev[i], q.ev[parent] = q.ev[parent], q.ev[i]
		i = parent
	}
}

func (q *eventQueue) pop() event {
	top := q.ev[0]
	n := len(q.ev) - 1
	q.ev[0] = q.ev[n]
	q.ev[n] = event{} // return the slot to the free list with no live refs
	q.ev = q.ev[:n]
	if n > 1 {
		q.siftDown(0)
	}
	return top
}

func (q *eventQueue) siftDown(i int) {
	n := len(q.ev)
	for {
		first := 4*i + 1
		if first >= n {
			return
		}
		min := first
		last := first + 4
		if last > n {
			last = n
		}
		for c := first + 1; c < last; c++ {
			if q.less(c, min) {
				min = c
			}
		}
		if !q.less(min, i) {
			return
		}
		q.ev[i], q.ev[min] = q.ev[min], q.ev[i]
		i = min
	}
}

// totalEvents accumulates EventsExecuted across every engine in the
// process. It exists for cross-run determinism checks (two runs of the same
// experiment must execute the same number of events); see
// TotalEventsExecuted.
var totalEvents atomic.Uint64

// TotalEventsExecuted reports the number of events executed by all engines
// in this process since it started. Engines flush their counts when Run
// returns (or panics), so reading the counter before and after a completed
// simulation yields that simulation's exact event count even though the
// engine itself is buried inside an experiment.
func TotalEventsExecuted() uint64 { return totalEvents.Load() }

// totalWindows accumulates window-barrier iterations across every sharded
// run in the process, the parallel-engine sibling of totalEvents; serve's
// /metrics exposes it as a live engine gauge.
var totalWindows atomic.Uint64

// TotalWindowBarriers reports the number of conservative window barriers
// executed by all sharded engines in this process since it started.
func TotalWindowBarriers() uint64 { return totalWindows.Load() }

// Engine owns the simulated clock and the pending-event queue. The zero
// value is not usable; construct with NewEngine.
type Engine struct {
	now     Time
	seq     uint64
	queue   eventQueue
	blocked int  // processes currently blocked on a primitive
	running bool // inside Run
	procSeq int

	// parkedHead/parkedTail form an intrusive doubly-linked list of blocked
	// processes, threaded through Proc.prevParked/nextParked. It replaces a
	// map keyed by *Proc: park/unpark are pointer writes instead of map
	// inserts/deletes, and the list exists only for deadlock diagnostics.
	parkedHead *Proc
	parkedTail *Proc

	// shard/shardIdx link a domain engine back to its sharded coordinator
	// (nil/0 for the ordinary serial engine); horizon is the end of the
	// current conservative window, used to validate cross-domain posts.
	// See parallel.go.
	shard    *ShardedEngine
	shardIdx int
	horizon  Time

	// Stats, exported for tests and for the experiment harness.
	EventsExecuted uint64

	// The sharded scheduler allocates its domain engines back to back and
	// each worker writes its engine's clock, sequence and counters on every
	// event; a full cache line of padding keeps one engine's hot fields off
	// the next one's line whatever the allocation's alignment.
	_ [64]byte
}

// NewEngine returns an engine with the clock at zero and no pending events.
func NewEngine() *Engine {
	return &Engine{}
}

// Now reports the current simulated time in seconds.
func (e *Engine) Now() Time { return e.now }

// At schedules fn to run at the absolute simulated time at. Scheduling in
// the past or at NaN panics: it always indicates a modelling bug, and
// silently reordering events would destroy determinism. Guards read
// !(at >= now) because NaN fails every comparison.
func (e *Engine) At(at Time, fn func()) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %.9g before now %.9g", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seqKind: e.seq<<kindBits | uint64(evFunc), arr: funcEvent(fn)})
}

// After schedules fn to run d seconds from the current simulated time.
func (e *Engine) After(d Time, fn func()) {
	if !(d >= 0) {
		panic(fmt.Sprintf("sim: invalid delay %.9g", d))
	}
	e.At(e.now+d, fn)
}

// Arriver is a typed completion callback: something that wants to be told
// when a scheduled instant arrives. It exists so hot paths (message
// deliveries, request completions) can schedule a completion without
// allocating a closure — the receiver object rides in the event itself,
// exactly as *Proc does for timers.
type Arriver interface {
	Arrive(at Time)
}

// ArriveFunc adapts an ordinary function to the Arriver interface, for
// call sites where a closure is fine (setup paths, tests).
type ArriveFunc func(at Time)

// Arrive calls f.
func (f ArriveFunc) Arrive(at Time) { f(at) }

// AtArrive schedules a.Arrive(at) at the absolute simulated time at. Unlike
// At it allocates nothing beyond the event slot: use it with a pooled or
// long-lived Arriver on per-message paths.
func (e *Engine) AtArrive(at Time, a Arriver) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %.9g before now %.9g", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seqKind: e.seq<<kindBits | uint64(evArrive), arr: a})
}

// schedProc schedules a process-control event (timer or resume) without
// allocating: the target rides in the event value itself.
func (e *Engine) schedProc(at Time, kind uint8, p *Proc) {
	if !(at >= e.now) {
		panic(fmt.Sprintf("sim: scheduling event at %.9g before now %.9g", at, e.now))
	}
	e.seq++
	e.queue.push(event{at: at, seqKind: e.seq<<kindBits | uint64(kind), proc: p})
}

// park records p as blocked, appending it to the parked list.
func (e *Engine) park(p *Proc) {
	if p.parked {
		panic(fmt.Sprintf("sim: process %q parked twice", p.name))
	}
	e.blocked++
	p.parked = true
	p.prevParked = e.parkedTail
	if e.parkedTail != nil {
		e.parkedTail.nextParked = p
	} else {
		e.parkedHead = p
	}
	e.parkedTail = p
}

// unpark removes p from the parked list.
func (e *Engine) unpark(p *Proc) {
	if !p.parked {
		panic(fmt.Sprintf("sim: waking process %q which is not parked", p.name))
	}
	e.blocked--
	p.parked = false
	if p.prevParked != nil {
		p.prevParked.nextParked = p.nextParked
	} else {
		e.parkedHead = p.nextParked
	}
	if p.nextParked != nil {
		p.nextParked.prevParked = p.prevParked
	} else {
		e.parkedTail = p.prevParked
	}
	p.prevParked, p.nextParked = nil, nil
}

// Run executes events in timestamp order until the event queue is empty.
// It returns the final simulated time.
//
// Run panics if, when the queue drains, some spawned processes are still
// blocked: that is a deadlock in the simulated program (for example an MPI
// Recv with no matching Send), and reporting it loudly beats returning a
// silently truncated result. Whatever panic ends a run, every process that
// has not finished is released before it reaches the caller.
func (e *Engine) Run() Time {
	if e.running {
		panic("sim: Run called reentrantly")
	}
	e.running = true
	startCount := e.EventsExecuted
	completed := false
	defer func() {
		if !completed {
			e.release()
		}
		e.running = false
		totalEvents.Add(e.EventsExecuted - startCount)
	}()

	for e.queue.len() > 0 {
		e.step()
	}
	if e.blocked > 0 {
		names := make([]string, 0, 9)
		for p := e.parkedHead; p != nil; p = p.nextParked {
			names = append(names, p.name)
			if len(names) == 8 {
				names = append(names, "...")
				break
			}
		}
		sort.Strings(names)
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked with no pending events (e.g. %v)", e.blocked, names))
	}
	completed = true
	return e.now
}

// release unwinds every process that has not finished (parked, runnable,
// or spawned and never started) when a panic ends the run; otherwise each
// would stay a live coroutine for the rest of the program.
func (e *Engine) release() {
	for p := e.parkedHead; p != nil; p = p.nextParked {
		p.release()
	}
	for _, ev := range e.queue.ev {
		if ev.proc != nil {
			ev.proc.release()
		}
	}
}

// step pops and dispatches the single earliest event. Callers must have
// checked that the queue is non-empty.
func (e *Engine) step() {
	ev := e.queue.pop()
	e.now = ev.at
	e.EventsExecuted++
	switch uint8(ev.seqKind & (1<<kindBits - 1)) {
	case evFunc:
		ev.arr.(funcEvent)()
	case evTimer:
		e.unpark(ev.proc)
		ev.proc.run()
	case evResume:
		ev.proc.run()
	case evArrive:
		ev.arr.Arrive(ev.at)
	}
}

// runUntil executes events with timestamps strictly before horizon,
// including events those events schedule, and returns when the next pending
// event (if any) is at or after horizon. It is the per-window work unit of
// the sharded scheduler (see parallel.go); unlike Run it performs no
// deadlock check and does not flush the global event counter — the sharded
// coordinator does both once at the end of the whole run.
func (e *Engine) runUntil(horizon Time) {
	e.horizon = horizon
	for e.queue.len() > 0 && e.queue.ev[0].at < horizon {
		e.step()
	}
}

// nextEventAt reports the timestamp of the earliest pending event, or
// Infinity when the queue is empty.
func (e *Engine) nextEventAt() Time {
	if e.queue.len() == 0 {
		return Infinity
	}
	return e.queue.ev[0].at
}
