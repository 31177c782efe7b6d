package sim

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestFIFOReserveWhenFree(t *testing.T) {
	var r FIFOResource
	start := r.Reserve(5.0, 2.0)
	if start != 5.0 {
		t.Fatalf("start = %v, want 5", start)
	}
	if r.BusyUntil != 7.0 {
		t.Fatalf("busyUntil = %v, want 7", r.BusyUntil)
	}
}

func TestFIFOReserveQueues(t *testing.T) {
	var r FIFOResource
	r.Reserve(0, 10)
	start := r.Reserve(3, 5)
	if start != 10 {
		t.Fatalf("queued start = %v, want 10", start)
	}
	if r.BusyUntil != 15 {
		t.Fatalf("busyUntil = %v, want 15", r.BusyUntil)
	}
	if r.Count != 2 {
		t.Fatalf("count = %d, want 2", r.Count)
	}
}

// TestFIFOReserveReportsWait pins the contract telemetry wait accounting
// depends on: Reserve's return value minus the requested time is exactly the
// queue wait, zero when the resource is free.
func TestFIFOReserveReportsWait(t *testing.T) {
	var r FIFOResource
	if got := r.Reserve(0, 10); got != 0 {
		t.Fatalf("uncontended reserve started at %v, want 0 (no wait)", got)
	}
	if got := r.Reserve(3, 5); got-3 != 7 {
		t.Fatalf("queued reserve waited %v, want 7", got-3)
	}
	if got := r.Reserve(20, 1); got != 20 {
		t.Fatalf("post-idle reserve started at %v, want 20 (no wait)", got)
	}
}

func TestFIFOUtilization(t *testing.T) {
	var r FIFOResource
	r.Reserve(0, 2)
	r.Reserve(0, 3)
	if got := r.Utilization(10); !almostEqual(got, 0.5, 1e-12) {
		t.Fatalf("utilization = %v, want 0.5", got)
	}
	if r.Utilization(0) != 0 {
		t.Fatal("zero-horizon utilization should be 0")
	}
}

// Property: a sequence of reservations never overlaps and never starts
// before the requested time.
func TestFIFONoOverlapProperty(t *testing.T) {
	f := func(seed int64, n uint8) bool {
		rng := rand.New(rand.NewSource(seed))
		var r FIFOResource
		prevEnd := 0.0
		at := 0.0
		for i := 0; i < int(n%32)+1; i++ {
			at += rng.Float64()
			dur := rng.Float64()
			start := r.Reserve(at, dur)
			if start < at || start < prevEnd {
				return false
			}
			prevEnd = start + dur
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPSSingleJobFullRate(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, 100.0) // 100 units/s
	var done Time
	e.Spawn("j", func(p *Proc) {
		r.Consume(p, 50)
		done = p.Now()
	})
	e.Run()
	if !almostEqual(done, 0.5, 1e-9) {
		t.Fatalf("single job finished at %v, want 0.5", done)
	}
}

func TestPSTwoEqualJobsShareCapacity(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, 100.0)
	var t1, t2 Time
	e.Spawn("a", func(p *Proc) { r.Consume(p, 50); t1 = p.Now() })
	e.Spawn("b", func(p *Proc) { r.Consume(p, 50); t2 = p.Now() })
	e.Run()
	// Both active from t=0 at 50 units/s each: both finish at t=1.
	if !almostEqual(t1, 1.0, 1e-9) || !almostEqual(t2, 1.0, 1e-9) {
		t.Fatalf("finish times = %v, %v, want 1.0 each", t1, t2)
	}
}

func TestPSStaggeredArrival(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, 100.0)
	var tA, tB Time
	e.Spawn("a", func(p *Proc) { r.Consume(p, 100); tA = p.Now() })
	e.Spawn("b", func(p *Proc) {
		p.Wait(0.5)
		r.Consume(p, 25)
		tB = p.Now()
	})
	e.Run()
	// A alone for 0.5s serves 50 units; then both at 50/s. B needs 25 →
	// finishes at 1.0; A has 50-25=25 left at 1.0, then full rate → 1.25.
	if !almostEqual(tB, 1.0, 1e-9) {
		t.Fatalf("tB = %v, want 1.0", tB)
	}
	if !almostEqual(tA, 1.25, 1e-9) {
		t.Fatalf("tA = %v, want 1.25", tA)
	}
}

func TestPSAsyncCallback(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, 10)
	var at Time
	e.After(0, func() {
		r.ConsumeAsync(5, func() { at = e.Now() })
	})
	e.Run()
	if !almostEqual(at, 0.5, 1e-9) {
		t.Fatalf("async completion at %v, want 0.5", at)
	}
}

func TestPSZeroAmountImmediate(t *testing.T) {
	e := NewEngine()
	r := NewPSResource(e, 10)
	var done Time = -1
	e.Spawn("z", func(p *Proc) {
		r.Consume(p, 0)
		done = p.Now()
	})
	e.Run()
	if done != 0 {
		t.Fatalf("zero-amount consume finished at %v, want 0", done)
	}
}

func TestPSServedAccounting(t *testing.T) {
	// Two jobs share 100 units/s: a's 30 units finish at 0.6 s, and b's
	// remaining 40 then run alone, so all 100 units are served by 1.0 s.
	e := NewEngine()
	r := NewPSResource(e, 100)
	var aDone, bDone Time
	e.Spawn("a", func(p *Proc) { r.Consume(p, 30); aDone = p.Now() })
	e.Spawn("b", func(p *Proc) { r.Consume(p, 70); bDone = p.Now() })
	e.Run()
	if !almostEqual(aDone, 0.6, 1e-6) || !almostEqual(bDone, 1.0, 1e-6) {
		t.Fatalf("jobs finished at %v and %v, want 0.6 and 1.0", aDone, bDone)
	}
	if r.Active() != 0 {
		t.Fatalf("active = %d, want 0", r.Active())
	}
}

// Property: total completion time of n identical jobs on a PS resource
// equals n*amount/capacity (work conservation), and all jobs finish
// simultaneously.
func TestPSWorkConservationProperty(t *testing.T) {
	f := func(nRaw uint8, amountRaw, capRaw uint16) bool {
		n := int(nRaw%8) + 1
		amount := float64(amountRaw%1000) + 1
		capacity := float64(capRaw%1000) + 1
		e := NewEngine()
		r := NewPSResource(e, capacity)
		finish := make([]Time, n)
		for i := 0; i < n; i++ {
			i := i
			e.Spawn("j", func(p *Proc) {
				r.Consume(p, amount)
				finish[i] = p.Now()
			})
		}
		e.Run()
		want := float64(n) * amount / capacity
		for _, fATime := range finish {
			if !almostEqual(fATime, want, 1e-6) {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestPSInvalidCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewPSResource(NewEngine(), 0)
}

func TestPSNoLivelockAtLargeClock(t *testing.T) {
	// Regression: a residual smaller than the clock's float resolution
	// (now + dt == now) must snap to completion instead of respawning the
	// completion event forever.
	e := NewEngine()
	r := NewPSResource(e, 1.2e9)
	var done int
	e.Spawn("late", func(p *Proc) {
		p.Wait(40)              // large clock value: eps(40) ≈ 7e-15
		r.Consume(p, 1_000_000) // doneBy ≈ 1e-6 → dt ≈ 8e-16 at the tail
		done++
	})
	e.Spawn("late2", func(p *Proc) {
		p.Wait(40.0000001)
		r.Consume(p, 1_000_000)
		done++
	})
	end := e.Run()
	if done != 2 {
		t.Fatalf("jobs completed = %d", done)
	}
	if end < 40 || end > 41 {
		t.Fatalf("end = %v", end)
	}
	if e.EventsExecuted > 10000 {
		t.Fatalf("event storm: %d events", e.EventsExecuted)
	}
}
