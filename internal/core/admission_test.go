package core

import (
	"fmt"
	"strings"
	"testing"

	"xtsim/internal/machine"
)

// mustPanic runs f and returns its panic message, failing the test when f
// returns normally.
func mustPanic(t *testing.T, f func()) (msg string) {
	t.Helper()
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("no panic")
		}
		msg = fmt.Sprint(r)
	}()
	f()
	return ""
}

func TestLateConfigurationPanics(t *testing.T) {
	for _, tc := range []struct {
		call string
		do   func(s *System)
	}{
		{"EnableTelemetry", func(s *System) { s.EnableTelemetry() }},
		{"EnableCritPath", func(s *System) { s.EnableCritPath() }},
		{"EnableTimeline", func(s *System) { s.EnableTimeline() }},
		{"EnableParallel", func(s *System) { s.EnableParallel(2) }},
		{"EnableHybrid", func(s *System) { s.EnableHybrid(HybridExact) }},
		{"AttachIO", func(s *System) { s.AttachIO(nil) }},
	} {
		t.Run(tc.call, func(t *testing.T) {
			s := NewSystem(machine.XT4(), machine.SN, 8)
			s.Run(func(*Rank) {})
			msg := mustPanic(t, func() { tc.do(s) })
			if !strings.Contains(msg, tc.call) || !strings.Contains(msg, "before mpi.NewWorld/Run") {
				t.Fatalf("panic %q should name %s and say to call it before mpi.NewWorld/Run", msg, tc.call)
			}
		})
	}
}

// TestRunRechecksPlannedEngine pins that settings the table reads but no
// Enable* call guards fail loudly when changed under a planned fast path,
// instead of racing on the sharded engine or being ignored by hybrid ranks.
func TestRunRechecksPlannedEngine(t *testing.T) {
	for _, req := range []struct {
		name    string
		request func(s *System) bool
	}{
		{"sharded", func(s *System) bool { return s.EnableParallel(2) }},
		{"hybrid", func(s *System) bool { return s.EnableHybrid(HybridExact) }},
	} {
		for _, late := range []struct {
			name, reason string
			set          func(s *System)
		}{
			{"NoiseAmp", "noise", func(s *System) { s.NoiseAmp = 0.1 }},
		} {
			t.Run(req.name+"/"+late.name, func(t *testing.T) {
				s := NewSystem(machine.XT4(), machine.SN, 64)
				if !req.request(s) {
					t.Fatalf("%s request declined on a bare system", req.name)
				}
				s.Plan(false)
				late.set(s)
				msg := mustPanic(t, func() { s.Run(func(*Rank) {}) })
				if !strings.Contains(msg, late.reason) || !strings.Contains(msg, "planned") {
					t.Fatalf("panic %q should name the %s row and the planned engine", msg, late.reason)
				}
			})
		}
	}
}

func TestAdmissionTableRows(t *testing.T) {
	// Sharded wins when both fast paths are requested, in either order.
	for _, parFirst := range []bool{true, false} {
		s := NewSystem(machine.XT4(), machine.SN, 64)
		if parFirst {
			s.EnableParallel(2)
			s.EnableHybrid(HybridExact)
		} else {
			s.EnableHybrid(HybridExact)
			s.EnableParallel(2)
		}
		s.Plan(false)
		if !s.ParallelEnabled() || s.HybridEnabled() || !strings.Contains(s.HybridReason(), "sharded") {
			t.Fatalf("parallel first=%v: parallel %v, hybrid %v (%q); want sharded to win",
				parFirst, s.ParallelEnabled(), s.HybridEnabled(), s.HybridReason())
		}
	}

	// A declined sharded request leaves the hybrid request free to engage.
	s := NewSystem(machine.XT4(), machine.SN, 64)
	s.EnableParallel(1)
	if !s.EnableHybrid(HybridExact) {
		t.Fatalf("hybrid declined beside a declined sharded request: %s", s.HybridReason())
	}
}

// TestFallbackCountedOncePerPlannedRun pins the ledger's unit: verdict
// queries before planning count nothing, planning counts each declined
// request once, and later runs of the same system count nothing more.
func TestFallbackCountedOncePerPlannedRun(t *testing.T) {
	const reason = "telemetry aggregation needs the serial event schedule"
	count := func() uint64 {
		for _, c := range FallbackCounts() {
			if c.Kind == "parallel" && c.Reason == reason {
				return c.Count
			}
		}
		return 0
	}
	before := count()
	s := NewSystem(machine.XT4(), machine.SN, 64).EnableTelemetry()
	if s.EnableParallel(2) || s.EnableParallel(2) || s.ParallelReason() != reason {
		t.Fatalf("parallel admitted beside telemetry (%q)", s.ParallelReason())
	}
	if n := count() - before; n != 0 {
		t.Fatalf("%d fallbacks counted before planning", n)
	}
	s.Run(func(*Rank) {})
	s.Run(func(*Rank) {})
	if n := count() - before; n != 1 {
		t.Fatalf("%d fallbacks counted for one declined request, want 1", n)
	}
}
