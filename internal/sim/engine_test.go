package sim

import (
	"math"
	"math/rand"
	"runtime"
	"testing"
	"time"
)

func almostEqual(a, b, tol float64) bool {
	return math.Abs(a-b) <= tol*math.Max(1, math.Max(math.Abs(a), math.Abs(b)))
}

func TestEventOrdering(t *testing.T) {
	e := NewEngine()
	var order []int
	e.At(2.0, func() { order = append(order, 3) })
	e.At(1.0, func() { order = append(order, 1) })
	e.At(1.5, func() { order = append(order, 2) })
	end := e.Run()
	if end != 2.0 {
		t.Fatalf("final time = %v, want 2.0", end)
	}
	for i, v := range order {
		if v != i+1 {
			t.Fatalf("order = %v, want ascending", order)
		}
	}
}

func TestEqualTimestampsFIFO(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 10; i++ {
		i := i
		e.At(1.0, func() { order = append(order, i) })
	}
	e.Run()
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered: %v", order)
		}
	}
}

func TestSchedulingInPastPanics(t *testing.T) {
	e := NewEngine()
	e.At(5.0, func() {
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.At(1.0, func() {})
	})
	e.Run()
}

func TestNegativeDelayPanics(t *testing.T) {
	e := NewEngine()
	defer func() {
		if recover() == nil {
			t.Error("negative After delay did not panic")
		}
	}()
	e.After(-1, func() {})
}

func TestNestedEventScheduling(t *testing.T) {
	e := NewEngine()
	depth := 0
	var recurse func()
	recurse = func() {
		depth++
		if depth < 100 {
			e.After(0.25, recurse)
		}
	}
	e.After(0.25, recurse)
	end := e.Run()
	if depth != 100 {
		t.Fatalf("depth = %d, want 100", depth)
	}
	if !almostEqual(end, 25.0, 1e-12) {
		t.Fatalf("end = %v, want 25.0", end)
	}
}

func TestProcWaitAdvancesClock(t *testing.T) {
	e := NewEngine()
	var samples []Time
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < 5; i++ {
			p.Wait(1.5)
			samples = append(samples, p.Now())
		}
	})
	e.Run()
	want := []Time{1.5, 3.0, 4.5, 6.0, 7.5}
	if len(samples) != len(want) {
		t.Fatalf("samples = %v", samples)
	}
	for i := range want {
		if !almostEqual(samples[i], want[i], 1e-12) {
			t.Fatalf("samples[%d] = %v, want %v", i, samples[i], want[i])
		}
	}
}

func TestTwoProcsInterleaveDeterministically(t *testing.T) {
	run := func() []string {
		e := NewEngine()
		var log []string
		e.Spawn("a", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(2)
				log = append(log, "a")
			}
		})
		e.Spawn("b", func(p *Proc) {
			for i := 0; i < 3; i++ {
				p.Wait(3)
				log = append(log, "b")
			}
		})
		e.Run()
		return log
	}
	first := run()
	// a@2, b@3, a@4, then at t=6 b precedes a because b's wake event was
	// scheduled earlier (at t=3 vs t=4) and ties break by schedule order;
	// finally b@9.
	want := []string{"a", "b", "a", "b", "a", "b"}
	if len(first) != len(want) {
		t.Fatalf("log = %v", first)
	}
	for i := range want {
		if first[i] != want[i] {
			t.Fatalf("log = %v, want %v", first, want)
		}
	}
	for trial := 0; trial < 20; trial++ {
		got := run()
		for i := range want {
			if got[i] != first[i] {
				t.Fatalf("nondeterministic interleaving: %v vs %v", got, first)
			}
		}
	}
}

func TestWaitUntil(t *testing.T) {
	e := NewEngine()
	e.Spawn("p", func(p *Proc) {
		p.WaitUntil(4.0)
		if !almostEqual(p.Now(), 4.0, 1e-12) {
			t.Errorf("now = %v, want 4", p.Now())
		}
		p.WaitUntil(4.0) // waiting until "now" is legal
	})
	e.Run()
}

func TestConditionBroadcast(t *testing.T) {
	e := NewEngine()
	var c Condition
	woken := 0
	for i := 0; i < 4; i++ {
		e.Spawn("w", func(p *Proc) {
			c.Await(p)
			woken++
		})
	}
	e.Spawn("signaller", func(p *Proc) {
		p.Wait(1.0)
		if c.Waiting() != 4 {
			t.Errorf("waiting = %d, want 4", c.Waiting())
		}
		c.Broadcast()
	})
	e.Run()
	if woken != 4 {
		t.Fatalf("woken = %d, want 4", woken)
	}
}

func TestDeadlockDetection(t *testing.T) {
	e := NewEngine()
	var c Condition
	e.Spawn("stuck", func(p *Proc) { c.Await(p) })
	defer func() {
		if recover() == nil {
			t.Error("deadlocked run did not panic")
		}
	}()
	e.Run()
}

// TestProcPanicReachesRunCaller checks a panic in a process body on a
// serial engine surfaces from Run with the original value: the coroutine
// switch re-raises it in the scheduler, so no capture is needed.
func TestProcPanicReachesRunCaller(t *testing.T) {
	type boom struct{ at Time }
	e := NewEngine()
	e.Spawn("bomb", func(p *Proc) {
		p.Wait(0.5)
		panic(boom{p.Now()})
	})
	defer func() {
		if r := recover(); r != (boom{0.5}) {
			t.Fatalf("recovered %v, want boom{0.5}", r)
		}
	}()
	e.Run()
}

// TestPanicReleasesUnfinishedProcs: before a process panic leaves Run,
// every process that has not finished is released — parked on a
// condition, woken but not yet resumed, waiting on a timer, and spawned
// but never started — none runs past its block point, and each one's
// coroutine is gone once Run has returned.
func TestPanicReleasesUnfinishedProcs(t *testing.T) {
	base := runtime.NumGoroutine()
	e := NewEngine()
	var c Condition
	resumed := 0
	for i := 0; i < 10; i++ {
		e.Spawn("parked", func(p *Proc) { c.Await(p); resumed++ })
		e.Spawn("timer", func(p *Proc) { p.Wait(1); resumed++ })
	}
	e.Spawn("bomb", func(p *Proc) {
		p.Wait(0.5)
		for i := 0; i < 10; i++ {
			e.Spawn("unstarted", func(*Proc) { resumed++ })
		}
		c.Broadcast()
		panic("boom")
	})
	func() {
		defer func() {
			if r := recover(); r != "boom" {
				t.Fatalf("recovered %v, want boom", r)
			}
		}()
		e.Run()
	}()
	if resumed != 0 {
		t.Fatalf("%d released bodies ran past their block point", resumed)
	}
	deadline := time.Now().Add(5 * time.Second)
	for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
		time.Sleep(time.Millisecond)
	}
	if g := runtime.NumGoroutine(); g > base {
		t.Fatalf("%d goroutines after the run, %d before", g, base)
	}
}

// TestNaNTimesPanic checks every scheduling entry point refuses a NaN
// time. NaN fails every comparison, so a guard written as at < now lets it
// into the heap, where it runs first and sends the clock to NaN.
func TestNaNTimesPanic(t *testing.T) {
	nan := math.NaN()
	fn := func() {}
	inProc := func(body func(p *Proc)) func() {
		return func() {
			e := NewEngine()
			e.Spawn("p", body)
			e.Run()
		}
	}
	for _, c := range []struct {
		name string
		call func()
	}{
		{"At", func() { NewEngine().At(nan, fn) }},
		{"After", func() { NewEngine().After(nan, fn) }},
		{"AtArrive", func() { NewEngine().AtArrive(nan, ArriveFunc(func(Time) {})) }},
		{"Wait", inProc(func(p *Proc) { p.Wait(nan) })},
		{"WaitUntil", inProc(func(p *Proc) { p.WaitUntil(nan) })},
		{"Post", func() { NewSharded(2, 1e-6).Engine(0).Post(1, nan, 0, ArriveFunc(func(Time) {})) }},
	} {
		t.Run(c.name, func(t *testing.T) {
			defer func() {
				if recover() == nil {
					t.Fatalf("%s(NaN) did not panic", c.name)
				}
			}()
			c.call()
		})
	}
}

func TestSpawnFromProcess(t *testing.T) {
	e := NewEngine()
	total := 0
	e.Spawn("parent", func(p *Proc) {
		p.Wait(1)
		for i := 0; i < 3; i++ {
			e.Spawn("child", func(q *Proc) {
				q.Wait(1)
				total++
			})
		}
	})
	end := e.Run()
	if total != 3 {
		t.Fatalf("total = %d, want 3", total)
	}
	if !almostEqual(end, 2.0, 1e-12) {
		t.Fatalf("end = %v, want 2", end)
	}
}

// token is a counting semaphore over Condition, the tests' stand-in for a
// message between processes: put never blocks (and may run in a plain
// event), take parks until a token is available.
type token struct {
	n    int
	cond Condition
}

func (t *token) put() {
	t.n++
	t.cond.Broadcast()
}

func (t *token) take(p *Proc) {
	for t.n == 0 {
		t.cond.Await(p)
	}
	t.n--
}

func TestDeadlockPanicNamesProcesses(t *testing.T) {
	e := NewEngine()
	var c Condition
	e.Spawn("stuck-recv", func(p *Proc) { c.Await(p) })
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("deadlock did not panic")
		}
		msg, ok := r.(string)
		if !ok || !containsStr(msg, "stuck-recv") {
			t.Fatalf("panic message should name the blocked process: %v", r)
		}
	}()
	e.Run()
}

func containsStr(s, sub string) bool {
	for i := 0; i+len(sub) <= len(s); i++ {
		if s[i:i+len(sub)] == sub {
			return true
		}
	}
	return false
}

// TestAtArriveDispatch checks the typed completion event: arrivers fire at
// their scheduled instants, in (time, seq) order, with the event's own
// timestamp as the argument.
func TestAtArriveDispatch(t *testing.T) {
	e := NewEngine()
	var got []Time
	rec := ArriveFunc(func(at Time) { got = append(got, at) })
	e.AtArrive(2.0, rec)
	e.AtArrive(1.0, rec)
	e.AtArrive(1.0, ArriveFunc(func(at Time) { got = append(got, at+100) }))
	end := e.Run()
	if end != 2.0 {
		t.Fatalf("end = %v", end)
	}
	want := []Time{1.0, 101.0, 2.0}
	if len(got) != len(want) {
		t.Fatalf("got = %v", got)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("got = %v, want %v", got, want)
		}
	}
}

// TestSameInstantOrderAcrossKinds pins the (time, seq) contract across the
// event kinds: at one instant, a Wait deadline queued at time zero, then an
// At closure, a Condition wake, an AtArrive Arriver and a second Wait
// deadline, all queued at that instant, fire in the order they were queued.
// Every pair of kinds appears in both orders, so dispatching any kind ahead
// of another at equal times reorders the log.
func TestSameInstantOrderAcrossKinds(t *testing.T) {
	const at = 1.0
	e := NewEngine()
	var fired []string
	note := func(s string) {
		if e.Now() != at {
			t.Errorf("%s fired at %v, want %v", s, e.Now(), at)
		}
		fired = append(fired, s)
	}
	var cond Condition
	e.Spawn("leader", func(p *Proc) {
		p.Wait(at) // the first deadline at the instant: queue the rest
		e.At(at, func() { note("closure") })
		cond.Broadcast()
		e.AtArrive(at, ArriveFunc(func(Time) { note("arriver") }))
		p.Wait(0)
		note("leader deadline")
	})
	e.Spawn("sleeper", func(p *Proc) {
		p.Wait(at) // queued at time zero, behind the leader's deadline
		note("sleeper deadline")
	})
	e.Spawn("waiter", func(p *Proc) {
		cond.Await(p)
		note("wake")
	})
	e.Run()
	want := []string{"sleeper deadline", "closure", "wake", "arriver", "leader deadline"}
	if len(fired) != len(want) {
		t.Fatalf("fired %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired %v, want %v", fired, want)
		}
	}
}

// TestEventOrderingStress drives the 4-ary heap through a large random
// schedule (including duplicate timestamps and events scheduled from inside
// events) and checks the (time, seq) contract: nondecreasing times, FIFO
// within a timestamp.
func TestEventOrderingStress(t *testing.T) {
	e := NewEngine()
	rng := rand.New(rand.NewSource(7))
	type stamp struct {
		at  Time
		idx int
	}
	var fired []stamp
	idx := 0
	var schedule func(depth int)
	schedule = func(depth int) {
		n := 200
		if depth > 0 {
			n = 20
		}
		for i := 0; i < n; i++ {
			at := e.Now() + Time(rng.Intn(50))/10 // coarse grid forces ties
			my := idx
			idx++
			e.At(at, func() {
				fired = append(fired, stamp{at: at, idx: my})
				if depth < 2 && rng.Intn(10) == 0 {
					schedule(depth + 1)
				}
			})
		}
	}
	schedule(0)
	e.Run()
	if len(fired) != idx {
		t.Fatalf("fired %d of %d events", len(fired), idx)
	}
	for i := 1; i < len(fired); i++ {
		if fired[i].at < fired[i-1].at {
			t.Fatalf("event %d fired at %v after %v", i, fired[i].at, fired[i-1].at)
		}
	}
	if uint64(idx) != e.EventsExecuted {
		t.Fatalf("EventsExecuted = %d, want %d", e.EventsExecuted, idx)
	}
}

// TestSameTimeFIFOUnderLoad verifies the seq tie-break survives heap churn:
// bursts of same-timestamp events interleaved with differently-timed ones
// still fire in scheduling order.
func TestSameTimeFIFOUnderLoad(t *testing.T) {
	e := NewEngine()
	var order []int
	for i := 0; i < 500; i++ {
		i := i
		e.At(2.0, func() { order = append(order, i) })
		e.At(Time(i%7), func() {})
	}
	e.Run()
	if len(order) != 500 {
		t.Fatalf("fired %d events at t=2, want 500", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-time events reordered at %d: got %d", i, v)
		}
	}
}

// TestSteadyStateSchedulingAllocFree pins the free-list invariant: once the
// event queue has grown to its high-water mark, scheduling and running
// events performs no heap allocation.
func TestSteadyStateSchedulingAllocFree(t *testing.T) {
	e := NewEngine()
	fn := func() {}
	for i := 0; i < 64; i++ {
		e.After(Time(i), fn)
	}
	e.Run()
	allocs := testing.AllocsPerRun(200, func() {
		for i := 0; i < 32; i++ {
			e.After(Time(i%5), fn)
		}
		e.Run()
	})
	if allocs != 0 {
		t.Fatalf("steady-state scheduling allocated %.1f times per run, want 0", allocs)
	}
}

// TestWakeNonParkedPanics guards the intrusive-list bookkeeping: waking a
// process that is not blocked is a modelling bug and must fail loudly.
func TestWakeNonParkedPanics(t *testing.T) {
	e := NewEngine()
	var c Condition
	var waiter *Proc
	e.Spawn("w", func(p *Proc) {
		waiter = p
		c.Await(p)
	})
	e.Spawn("signaller", func(p *Proc) {
		p.Wait(1)
		c.Broadcast() // unparks the waiter; its resume event is now pending
		defer func() {
			if recover() == nil {
				t.Error("waking a non-parked process did not panic")
			}
		}()
		waiter.wake()
	})
	e.Run()
}
