package xtsim_test

import (
	"bytes"
	"strings"
	"testing"

	"xtsim"
)

func TestFacadeEndToEnd(t *testing.T) {
	// The three-call happy path from the README, through the facade only,
	// with the timeline flight recorder on.
	sys := xtsim.NewSystem(xtsim.XT4(), xtsim.VN, 8).EnableTimeline()
	elapsed := xtsim.RunMPI(sys, xtsim.Auto, func(p *xtsim.P) {
		p.Compute(xtsim.Work{Flops: 1e7, StreamBytes: 1e6})
		res := p.Allreduce(xtsim.Sum, 8, []float64{1})
		if res[0] != 8 {
			t.Errorf("allreduce = %v", res)
		}
	})
	if elapsed <= 0 {
		t.Fatal("no simulated time elapsed")
	}
	if rep := sys.TimelineReport(elapsed); rep.Spans == 0 {
		t.Fatal("timeline captured no spans")
	}
}

func TestFacadeMachinePresets(t *testing.T) {
	for _, m := range []xtsim.Machine{
		xtsim.XT3(), xtsim.XT3DualCore(), xtsim.XT4(), xtsim.CombinedXT3XT4(),
		xtsim.X1E(), xtsim.EarthSimulator(), xtsim.P690(), xtsim.P575(), xtsim.SP(),
	} {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
	m, err := xtsim.MachineByName("XT4")
	if err != nil || m.Name != "XT4" {
		t.Fatalf("MachineByName: %v %v", m.Name, err)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	if len(xtsim.Experiments()) < 30 {
		t.Fatalf("registry has only %d experiments", len(xtsim.Experiments()))
	}
	var buf bytes.Buffer
	if err := xtsim.RunExperiment("table1", &buf, true); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(buf.String(), "SeaStar2") {
		t.Fatalf("table1 output: %q", buf.String())
	}
	if err := xtsim.RunExperiment("no-such-figure", &buf, true); err == nil {
		t.Fatal("unknown experiment id should error")
	}
}
