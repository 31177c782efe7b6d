package expt

import (
	"strconv"
	"strings"
	"testing"

	"xtsim/internal/core"
	ckpt "xtsim/internal/io"
	"xtsim/internal/machine"
)

// TestExtCkptRenderedContract pins the experiment's headline claims in the
// rendered output: every torus-routed checkpoint row reports a strictly
// positive slowdown, and every off-fabric control row reports exactly
// +0.00% (the skew-preserving quiesce replays the baseline schedule).
func TestExtCkptRenderedContract(t *testing.T) {
	out := renderExpt(t, "ext-ckpt", Options{Short: true})
	var torus, control int
	for _, line := range strings.Split(out, "\n") {
		f := strings.Fields(line)
		if len(f) == 0 || strings.TrimFunc(f[0], func(r rune) bool { return r >= '0' && r <= '9' }) != "" {
			continue // not a table data row (first cell is the task count)
		}
		switch {
		case strings.Contains(line, "off fabric"):
			control++
			if !strings.Contains(line, "+0.00%") {
				t.Errorf("control row should show +0.00%% slowdown: %q", line)
			}
		case strings.Contains(line, "checkpoint") && !strings.Contains(line, "no checkpoint"):
			torus++
			if !strings.Contains(line, "+") || strings.Contains(line, "+0.00%") {
				t.Errorf("torus row should show a positive slowdown: %q", line)
			}
		}
	}
	if torus == 0 || control == 0 {
		t.Fatalf("expected both torus (%d) and control (%d) rows in:\n%s", torus, control, out)
	}
}

// TestExtCkptHonorsCadenceOption: -ckpt-every changes the epoch count.
func TestExtCkptHonorsCadenceOption(t *testing.T) {
	def := renderExpt(t, "ext-ckpt", Options{Short: true})
	alt := renderExpt(t, "ext-ckpt", Options{Short: true, CkptEvery: 5})
	if def == alt {
		t.Fatal("CkptEvery=5 rendered identically to the default cadence")
	}
	if !strings.Contains(alt, "every 5 steps") {
		t.Fatalf("cadence not reflected in output:\n%s", alt)
	}
}

// TestExtCkptShardsFallbackReason pins the admission rows that keep
// ext-ckpt's systems on the serial engine if the sharded scheduler is
// requested: telemetry declines the request, and even without telemetry
// the I/O attach declines it, whichever call came first.
func TestExtCkptShardsFallbackReason(t *testing.T) {
	sys := core.NewSystemSIO(machine.XT4(), machine.SN, 8, 4)
	sys.EnableTelemetry()
	if sys.EnableParallel(4) {
		t.Fatal("parallel admitted with telemetry enabled")
	}
	if r := sys.ParallelReason(); !strings.Contains(r, "telemetry") {
		t.Errorf("ParallelReason = %q, want telemetry named", r)
	}

	sys = core.NewSystemSIO(machine.XT4(), machine.SN, 8, 4)
	if !sys.EnableParallel(4) {
		t.Fatalf("parallel should admit on a bare system: %s", sys.ParallelReason())
	}
	if _, err := ckpt.Attach(sys, ckpt.Config{}); err != nil {
		t.Fatal(err)
	}
	if sys.ParallelEnabled() {
		t.Fatal("parallel survived the I/O attach")
	}
	if r := sys.ParallelReason(); !strings.Contains(r, "I/O") {
		t.Errorf("ParallelReason = %q, want the I/O subsystem named", r)
	}
}

// TestExtIOStripeWideningHelps pins the ext-io headline inside the rendered
// table: for the 1 MiB transfer rows, the widest stripe's write bandwidth
// beats single-stripe.
func TestExtIOStripeWideningHelps(t *testing.T) {
	out := renderExpt(t, "ext-io", Options{Short: true})
	var rows []string
	for _, line := range strings.Split(out, "\n") {
		if strings.HasPrefix(line, "1024 KiB") {
			rows = append(rows, line)
		}
	}
	if len(rows) < 2 {
		t.Fatalf("expected 1024 KiB rows in:\n%s", out)
	}
	first, last := strings.Fields(rows[0]), strings.Fields(rows[len(rows)-1])
	// Columns: transfer (two fields: "1024 KiB"), stripes, write GB/s, ...
	if first[2] != "1" {
		t.Fatalf("first 1024 KiB row is not single-stripe: %q", rows[0])
	}
	firstBW, err1 := strconv.ParseFloat(first[3], 64)
	lastBW, err2 := strconv.ParseFloat(last[3], 64)
	if err1 != nil || err2 != nil {
		t.Fatalf("unparseable write bandwidth cells %q, %q", first[3], last[3])
	}
	if lastBW <= firstBW {
		t.Errorf("widest stripe write bw %.2f GB/s should beat single stripe %.2f GB/s", lastBW, firstBW)
	}
}
