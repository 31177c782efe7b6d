package mpi

import (
	"runtime"
	"strings"
	"testing"
	"time"

	"xtsim/internal/core"
	"xtsim/internal/machine"
)

// TestPanickingRunsReleaseCoroutines: whatever panic ends a run, no rank
// coroutine may outlive it. Under `xtsim -serve` the runner recovers
// experiment panics, so every leaked coroutine would stay for the life of
// the server. In the panic arms the last rank panics while the others are
// parked in a receive or not yet started; in the violation arm the exact
// ledger aborts a fan-in and the DES re-runs it.
func TestPanickingRunsReleaseCoroutines(t *testing.T) {
	const n = 64
	lastPanics := func(p *P) {
		if p.Rank() == n-1 {
			p.Task().ComputeSeconds(1e-3)
			panic("boom")
		}
		p.Recv(n-1, 1)
	}
	fanIn := func(p *P) {
		if p.Rank() == 0 {
			for r := 1; r < p.Size(); r++ {
				p.Recv(r, 3)
			}
		} else {
			p.Send(0, 3, 1024)
		}
	}
	cases := []struct {
		name    string
		prepare func(sys *core.System) bool
		body    func(p *P)
		panics  bool
	}{
		{"des", func(*core.System) bool { return true }, lastPanics, true},
		{"sharded", func(sys *core.System) bool { return sys.EnableParallel(2) }, lastPanics, true},
		{"hybrid", func(sys *core.System) bool { return sys.EnableHybrid(core.HybridExact) }, lastPanics, true},
		{"exact violation", func(sys *core.System) bool { return sys.EnableHybrid(core.HybridExact) }, fanIn, false},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			base := runtime.NumGoroutine()
			sys := newSys(n, machine.SN)
			if !c.prepare(sys) {
				t.Fatal("fast path declined")
			}
			got := func() (r any) {
				defer func() { r = recover() }()
				Run(sys, Algorithmic, c.body)
				return nil
			}()
			if c.panics && got != "boom" {
				t.Fatalf("Run panicked with %v, want boom", got)
			}
			if !c.panics {
				if got != nil {
					t.Fatalf("Run panicked with %v", got)
				}
				if !strings.Contains(sys.HybridReason(), "link ownership violation") {
					t.Fatalf("want an exact-ledger abort, reason %q", sys.HybridReason())
				}
			}
			// Finished coroutines and the sharded workers exit
			// asynchronously; leaked ones never do.
			deadline := time.Now().Add(5 * time.Second)
			for runtime.NumGoroutine() > base && time.Now().Before(deadline) {
				time.Sleep(time.Millisecond)
			}
			if g := runtime.NumGoroutine(); g > base {
				t.Fatalf("%d goroutines after the run, %d before", g, base)
			}
		})
	}
}
