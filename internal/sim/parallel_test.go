package sim

import (
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
)

// TestShardedMatchesSerial runs the same two-domain ping-pong program on a
// serial engine and on a sharded engine and requires identical event
// counts and makespan. The program is built so every cross-domain effect
// is at least `lat` after its cause, matching the lookahead contract.
func TestShardedMatchesSerial(t *testing.T) {
	const lat = 1e-6 // cross-domain latency
	const rounds = 50

	// build constructs the program on two engines (which may be the same
	// engine twice, for the serial reference). send posts cross-engine.
	build := func(e0, e1 *Engine, send func(from *Engine, to int, at Time, fn func())) (done *int) {
		n := new(int)
		var t0, t1 token
		e0.Spawn("ping", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				at := p.Now() + lat
				send(e0, 1, at, t1.put)
				t0.take(p)
				*n++
			}
		})
		e1.Spawn("pong", func(p *Proc) {
			for i := 0; i < rounds; i++ {
				t1.take(p)
				at := p.Now() + lat
				send(e1, 0, at, t0.put)
			}
		})
		return n
	}

	serial := NewEngine()
	nSerial := build(serial, serial, func(from *Engine, to int, at Time, fn func()) {
		from.At(at, fn)
	})
	serialEnd := serial.Run()
	serialEvents := serial.EventsExecuted

	sh := NewSharded(2, lat)
	nPar := build(sh.Engine(0), sh.Engine(1), func(from *Engine, to int, at Time, fn func()) {
		from.Post(to, at, 0, ArriveFunc(func(Time) { fn() }))
	})
	parEnd := sh.Run()
	var parEvents uint64
	for i := 0; i < sh.NumDomains(); i++ {
		parEvents += sh.Engine(i).EventsExecuted
	}

	if *nSerial != rounds || *nPar != rounds {
		t.Fatalf("rounds: serial %d parallel %d, want %d", *nSerial, *nPar, rounds)
	}
	if serialEnd != parEnd {
		t.Fatalf("makespan: serial %.12g parallel %.12g", serialEnd, parEnd)
	}
	if serialEvents != parEvents {
		t.Fatalf("events: serial %d parallel %d", serialEvents, parEvents)
	}
	st := sh.Stats()
	if st[0].PostsOut != rounds || st[1].PostsOut != rounds {
		t.Fatalf("posts out: %d / %d, want %d each", st[0].PostsOut, st[1].PostsOut, rounds)
	}
	if st[0].Windows == 0 || st[1].Windows == 0 {
		t.Fatalf("expected both domains to execute windows: %+v", st)
	}
}

// TestShardedMergeDeterministic floods one target domain with equal-time
// posts from several source domains and checks the delivery order is the
// documented (at, key, from, seq) order, twice.
func TestShardedMergeDeterministic(t *testing.T) {
	run := func() []string {
		const D = 4
		sh := NewSharded(D, 1e-3)
		var got []string
		for from := 1; from < D; from++ {
			from := from
			e := sh.Engine(from)
			e.Spawn(fmt.Sprintf("src%d", from), func(p *Proc) {
				for k := 0; k < 3; k++ {
					k := k
					// Same timestamp from every source; key distinguishes a
					// pair sharing (at, key) to exercise the from/seq ranks.
					at := Time(0.01)
					key := uint64(k % 2)
					e.Post(0, at, key, ArriveFunc(func(Time) {
						got = append(got, fmt.Sprintf("f%dk%d#%d", from, key, k))
					}))
				}
			})
		}
		sh.Run()
		return got
	}
	a, b := run(), run()
	if strings.Join(a, " ") != strings.Join(b, " ") {
		t.Fatalf("merge order differs between runs:\n%v\n%v", a, b)
	}
	want := "f1k0#0 f1k0#2 f2k0#0 f2k0#2 f3k0#0 f3k0#2 f1k1#1 f2k1#1 f3k1#1"
	if got := strings.Join(a, " "); got != want {
		t.Fatalf("merge order = %q, want %q", got, want)
	}
}

// TestShardedLookaheadViolationPanics pins the runtime guard: posting
// cross-domain earlier than the window horizon must panic loudly.
func TestShardedLookaheadViolationPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		if !strings.Contains(fmt.Sprint(r), "lookahead") {
			t.Fatalf("panic = %v, want lookahead violation", r)
		}
	}()
	sh := NewSharded(2, 1e-6)
	e := sh.Engine(0)
	e.Spawn("bad", func(p *Proc) {
		p.Wait(1e-3)
		// Post "now" — inside the current window, a lookahead violation.
		e.Post(1, p.Now(), 0, ArriveFunc(func(Time) {}))
	})
	sh.Run()
}

// TestShardedDeadlockPanics checks the aggregated cross-domain deadlock
// diagnostic fires when a process blocks forever in one domain.
func TestShardedDeadlockPanics(t *testing.T) {
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("expected panic")
		}
		s := fmt.Sprint(r)
		if !strings.Contains(s, "deadlock") || !strings.Contains(s, "stuck") {
			t.Fatalf("panic = %v, want deadlock naming the stuck process", r)
		}
	}()
	sh := NewSharded(2, 1e-6)
	var tk token
	sh.Engine(1).Spawn("stuck", func(p *Proc) {
		tk.take(p) // never put
	})
	sh.Engine(0).Spawn("fine", func(p *Proc) { p.Wait(1) })
	sh.Run()
}

// TestShardedPanicPropagates checks a panic inside one domain's simulation
// surfaces on the Run caller's goroutine with the original value.
func TestShardedPanicPropagates(t *testing.T) {
	defer func() {
		if r := recover(); fmt.Sprint(r) != "boom" {
			t.Fatalf("recovered %v, want boom", r)
		}
	}()
	sh := NewSharded(3, 1e-6)
	sh.Engine(2).Spawn("bomb", func(p *Proc) {
		p.Wait(0.5)
		panic("boom")
	})
	sh.Run()
}

// TestShardedIdleDomainSkipsWindows checks domains with no events near the
// window are not dispatched, and that the global clock still reaches the
// farthest domain's last event.
func TestShardedIdleDomainSkipsWindows(t *testing.T) {
	sh := NewSharded(2, 1e-6)
	var ran atomic.Int32
	sh.Engine(0).Spawn("busy", func(p *Proc) {
		for i := 0; i < 10; i++ {
			p.Wait(1e-7)
		}
		ran.Add(1)
	})
	sh.Engine(1).At(5.0, func() { ran.Add(1) })
	end := sh.Run()
	if end != 5.0 {
		t.Fatalf("end = %g, want 5.0", end)
	}
	if ran.Load() != 2 {
		t.Fatalf("ran = %d, want 2", ran.Load())
	}
	st := sh.Stats()
	// The far-future event fires in exactly one window for domain 1.
	if st[1].Windows != 1 {
		t.Fatalf("idle domain executed %d windows, want 1 (stats %+v)", st[1].Windows, st)
	}
}
