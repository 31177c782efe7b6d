package ckpt

import (
	"strings"
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/lustre"
	"xtsim/internal/machine"
)

func TestAttachDefaultsAndClamping(t *testing.T) {
	sys := core.NewSystemSIO(machine.XT4(), machine.SN, 4, 4)
	w, err := Attach(sys, Config{})
	if err != nil {
		t.Fatal(err)
	}
	if got, want := w.FS.Cfg, lustre.DefaultConfig(); got != want {
		t.Errorf("zero Config.FS should mean DefaultConfig, got %+v", got)
	}
	if w.stripes != lustre.DefaultConfig().DefaultStripeCount {
		t.Errorf("stripes = %d, want filesystem default %d", w.stripes, lustre.DefaultConfig().DefaultStripeCount)
	}

	// Stripe counts beyond the OST count clamp to full width (lfs
	// setstripe -c -1 semantics) instead of panicking in lustre.Create.
	sys = core.NewSystemSIO(machine.XT4(), machine.SN, 4, 4)
	w, err = Attach(sys, Config{StripeCount: 10 * lustre.DefaultConfig().TotalOSTs()})
	if err != nil {
		t.Fatal(err)
	}
	if w.stripes != lustre.DefaultConfig().TotalOSTs() {
		t.Errorf("oversized stripe count clamped to %d, want %d", w.stripes, lustre.DefaultConfig().TotalOSTs())
	}

	if _, err := Attach(core.NewSystem(machine.XT4(), machine.SN, 4), Config{StripeCount: -1}); err == nil {
		t.Error("negative stripe count accepted")
	}
	if _, err := Attach(core.NewSystem(machine.XT4(), machine.SN, 4), Config{Mode: NtoM, Aggregators: 5}); err == nil {
		t.Error("more aggregators than ranks accepted")
	}
	bad := lustre.DefaultConfig()
	bad.OSSCount = 0
	if _, err := Attach(core.NewSystem(machine.XT4(), machine.SN, 4), Config{FS: bad}); err == nil {
		t.Error("invalid lustre config accepted")
	}
}

func TestDisableTrafficSetsBypass(t *testing.T) {
	sys := core.NewSystemSIO(machine.XT4(), machine.SN, 4, 4)
	w, err := Attach(sys, Config{DisableTraffic: true})
	if err != nil {
		t.Fatal(err)
	}
	if !w.FS.Cfg.BypassFabric {
		t.Error("DisableTraffic did not set lustre BypassFabric")
	}
}

func TestAttachDeclinesParallelAndHybrid(t *testing.T) {
	// A request admitted before the I/O subsystem attaches must decline
	// once it has: MDS/OSS/OST resources are engine-global, and the engine
	// is planned from the whole configuration.
	sys := core.NewSystemSIO(machine.XT4(), machine.SN, 8, 4)
	if !sys.EnableParallel(2) {
		t.Fatalf("parallel should admit before I/O attach: %s", sys.ParallelReason())
	}
	if _, err := Attach(sys, Config{}); err != nil {
		t.Fatal(err)
	}
	if sys.ParallelEnabled() {
		t.Fatal("parallel stayed enabled past AttachIO")
	}
	if r := sys.ParallelReason(); !strings.Contains(r, "I/O") {
		t.Errorf("ParallelReason = %q, want it to name the I/O subsystem", r)
	}

	sys = core.NewSystemSIO(machine.XT4(), machine.SN, 8, 4)
	if !sys.EnableHybrid(core.HybridExact) {
		t.Fatalf("hybrid should admit before I/O attach: %s", sys.HybridReason())
	}
	if _, err := Attach(sys, Config{}); err != nil {
		t.Fatal(err)
	}
	if sys.HybridEnabled() {
		t.Fatal("hybrid stayed enabled past AttachIO")
	}
	if r := sys.HybridReason(); !strings.Contains(r, "I/O") {
		t.Errorf("HybridReason = %q, want it to name the I/O subsystem", r)
	}

	// And requests arriving after the attach decline up front.
	sys = core.NewSystemSIO(machine.XT4(), machine.SN, 8, 4)
	if _, err := Attach(sys, Config{}); err != nil {
		t.Fatal(err)
	}
	if sys.EnableParallel(2) {
		t.Fatal("parallel admitted after I/O attach")
	}
	if sys.EnableHybrid(core.HybridExact) {
		t.Fatal("hybrid admitted after I/O attach")
	}
}
