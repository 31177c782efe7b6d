package sim

import "testing"

// BenchmarkEngineEvents measures the steady-state cost of one scheduled
// event (push + pop + dispatch) with a realistically deep queue: 1024
// self-rescheduling timers are kept in flight, so every operation pays a
// full sift through several heap levels.
func BenchmarkEngineEvents(b *testing.B) {
	e := NewEngine()
	width := 1024
	if width > b.N {
		width = b.N
	}
	fired := 0
	var tick func()
	tick = func() {
		fired++
		if fired <= b.N-width {
			e.After(1, tick)
		}
	}
	for i := 0; i < width; i++ {
		// Stagger seeds so the heap holds distinct timestamps.
		e.At(Time(i)/Time(width), tick)
	}
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
	if fired != b.N {
		b.Fatalf("fired %d events, want %d", fired, b.N)
	}
}

// BenchmarkProcSwitch measures one blocking-operation round trip: two
// processes ping-pong through a pair of tokens, so each iteration is two
// yield/wake cycles (four coroutine switches: each process is resumed and
// suspends once). This is the cost every simulated Recv, resource
// acquisition, and rendezvous pays.
func BenchmarkProcSwitch(b *testing.B) {
	e := NewEngine()
	var ping, pong token
	e.Spawn("ping", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.put()
			pong.take(p)
		}
	})
	e.Spawn("pong", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			ping.take(p)
			pong.put()
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// BenchmarkProcWait measures a pure timer block: one process repeatedly
// waiting. Each iteration is one timer event plus one coroutine switch
// pair.
func BenchmarkProcWait(b *testing.B) {
	e := NewEngine()
	e.Spawn("waiter", func(p *Proc) {
		for i := 0; i < b.N; i++ {
			p.Wait(1)
		}
	})
	b.ReportAllocs()
	b.ResetTimer()
	e.Run()
}

// TestProcSwitchAllocFree pins the coroutine switch at zero allocations:
// resuming and suspending a process must not allocate, however many times
// it blocks. Spawn's one-off coroutine setup amortizes to 0 allocs/op.
func TestProcSwitchAllocFree(t *testing.T) {
	if testing.Short() {
		t.Skip("benchmark-backed guard skipped in -short")
	}
	if raceEnabled {
		t.Skip("allocation counts are perturbed under the race detector")
	}
	res := testing.Benchmark(BenchmarkProcSwitch)
	if a := res.AllocsPerOp(); a != 0 {
		t.Fatalf("process switch round trip allocates %d allocs/op, want 0", a)
	}
}
