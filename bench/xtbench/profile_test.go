package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestAttributionBuckets(t *testing.T) {
	f := func(fn, file string) pFrame { return pFrame{fn: fn, file: file} }
	gopark := f("runtime.gopark", "/go/src/runtime/proc.go")
	malloc := f("runtime.mallocgc", "/go/src/runtime/malloc.go")
	cases := []struct {
		name   string
		frames []pFrame
		want   string
	}{
		{"runtime frame under sim/proc.go", []pFrame{gopark, f("xtsim/internal/sim.(*Proc).Wait", "/src/internal/sim/proc.go"), f("xtsim/internal/core.(*Rank).Compute", "/src/internal/core/system.go")}, "cpu.sim.proc"},
		{"pure GC stack", []pFrame{f("runtime.scanobject", "/go/src/runtime/mgcmark.go"), f("runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go")}, "cpu.runtime"},
		{"harness frames only", []pFrame{malloc, f("main.runCampaign", "/src/bench/xtbench/workloads.go")}, "cpu.runtime"},
		{"mallocgc under mpi", []pFrame{malloc, f("xtsim/internal/mpi.(*P).Isend", "/src/internal/mpi/mpi.go")}, "cpu.mpi.core"},
		{"generic shape in sim", []pFrame{f("xtsim/internal/sim.(*Mailbox[go.shape.*xtsim/internal/mpi.flight]).Put", "/src/internal/sim/mailbox.go")}, "cpu.sim.proc"},
		{"sim engine", []pFrame{f("xtsim/internal/sim.(*Engine).Run", "/src/internal/sim/engine.go")}, "cpu.sim.engine"},
		{"sim resource", []pFrame{f("xtsim/internal/sim.(*PSResource).Consume", "/src/internal/sim/resource.go")}, "cpu.sim.resource"},
		{"sim parallel", []pFrame{f("xtsim/internal/sim.(*ShardedEngine).Run", "/src/internal/sim/parallel.go")}, "cpu.sim.parallel"},
		{"fabric", []pFrame{f("xtsim/internal/network.(*Fabric).Deliver", "/src/internal/network/fabric.go")}, "cpu.network.fabric"},
		{"network hybrid", []pFrame{f("xtsim/internal/network.(*HybridSession).Send", "/src/internal/network/hybrid.go")}, "cpu.network.hybrid"},
		{"network parallel", []pFrame{f("xtsim/internal/network.(*Fabric).deliverSharded", "/src/internal/network/parallel.go")}, "cpu.network.parallel"},
		{"mpi hybrid", []pFrame{f("xtsim/internal/mpi.hybRun", "/src/internal/mpi/hybrid.go")}, "cpu.mpi.hybrid"},
		{"mpi observer hooks", []pFrame{f("xtsim/internal/mpi.(*P).PhaseEnd", "/src/internal/mpi/timeline.go")}, "cpu.mpi.observe"},
		{"app closure", []pFrame{malloc, f("xtsim/internal/apps/s3d.RunOn.func1", "/src/internal/apps/s3d/s3d.go")}, "cpu.apps"},
		{"kernels count as hpcc", []pFrame{f("xtsim/internal/kernels.DGEMMWork", "/src/internal/kernels/dgemm.go")}, "cpu.hpcc"},
		{"io counts as lustre", []pFrame{f("xtsim/internal/io.(*Writer).Checkpoint", "/src/internal/io/ckpt.go")}, "cpu.lustre"},
		{"observer", []pFrame{f("xtsim/internal/timeline.(*Collector).Busy", "/src/internal/timeline/timeline.go"), f("xtsim/internal/network.(*Fabric).Deliver", "/src/internal/network/fabric.go")}, "cpu.timeline"},
		{"torus", []pFrame{f("xtsim/internal/torus.Torus.Route", "/src/internal/torus/torus.go")}, "cpu.torus"},
		{"experiment layer", []pFrame{f("xtsim/internal/expt.(*Result).Render", "/src/internal/expt/result.go")}, "cpu.expt"},
		{"unknown package", []pFrame{f("xtsim/internal/probe.Emit", "/src/internal/probe/probe.go")}, "cpu.other"},
	}
	for _, c := range cases {
		p := &profile{samples: []pSample{{frames: c.frames, nanos: 10e6}}}
		got, total := p.attribute()
		if got[c.want] != 0.01 || total != 0.01 || len(got) != 1 {
			t.Errorf("%s: buckets %v, want %s = 0.01", c.name, got, c.want)
		}
	}
}

// Every bucket attribute can produce is a reported metric.
func TestBucketsAreMetrics(t *testing.T) {
	names := map[string]bool{"cpu.runtime": true, "cpu.other": true}
	for _, files := range fileBuckets {
		for _, b := range files {
			names[b] = true
		}
	}
	for _, b := range pkgBuckets {
		names[b] = true
	}
	for n := range names {
		metricByName(perLayer, n) // panics when missing
	}
}

func pbKey(b []byte, field int, wire uint64) []byte {
	return binary.AppendUvarint(b, uint64(field)<<3|wire)
}

func pbVarint(b []byte, field int, v uint64) []byte {
	return binary.AppendUvarint(pbKey(b, field, 0), v)
}

func pbBytes(b []byte, field int, msg []byte) []byte {
	b = binary.AppendUvarint(pbKey(b, field, 2), uint64(len(msg)))
	return append(b, msg...)
}

func pbPacked(vs ...uint64) []byte {
	var b []byte
	for _, v := range vs {
		b = binary.AppendUvarint(b, v)
	}
	return b
}

// TestParseProfile decodes a hand-built profile.proto: string table, two
// sample types, functions, a location with an inlined frame, and packed
// sample fields, gzipped the way runtime/pprof writes it.
func TestParseProfile(t *testing.T) {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.gopark", "/go/src/runtime/proc.go",
		"xtsim/internal/sim.(*Proc).Wait", "/src/internal/sim/proc.go",
		"xtsim/internal/network.(*Fabric).deliverRemote", "/src/internal/network/fabric.go",
		"runtime.gcBgMarkWorker", "/go/src/runtime/mgc.go"}
	var b []byte
	b = pbBytes(b, profSampleType, pbVarint(pbVarint(nil, 1, 1), 2, 2))
	b = pbBytes(b, profSampleType, pbVarint(pbVarint(nil, 1, 3), 2, 4))
	// Sample 1: gopark under Proc.Wait. Sample 2: deliverRemote inlined
	// into Proc.Wait, with unpacked fields. Sample 3: a GC worker.
	b = pbBytes(b, profSample, pbBytes(pbBytes(nil, sampleLocation, pbPacked(1, 2)), sampleValue, pbPacked(1, 10e6)))
	b = pbBytes(b, profSample, pbVarint(pbVarint(pbVarint(nil, sampleLocation, 3), sampleValue, 2), sampleValue, 20e6))
	b = pbBytes(b, profSample, pbBytes(pbBytes(nil, sampleLocation, pbPacked(4)), sampleValue, pbPacked(4, 40e6)))
	line := func(fn uint64) []byte { return pbVarint(pbVarint(nil, lineFunction, fn), 2, 7) }
	b = pbBytes(b, profLocation, pbBytes(pbVarint(nil, locationID, 1), locationLine, line(1)))
	b = pbBytes(b, profLocation, pbBytes(pbVarint(nil, locationID, 2), locationLine, line(2)))
	b = pbBytes(b, profLocation, pbBytes(pbBytes(pbVarint(nil, locationID, 3), locationLine, line(3)), locationLine, line(2)))
	b = pbBytes(b, profLocation, pbBytes(pbVarint(nil, locationID, 4), locationLine, line(4)))
	for id, fn := range [][2]uint64{{5, 6}, {7, 8}, {9, 10}, {11, 12}} {
		b = pbBytes(b, profFunction, pbVarint(pbVarint(pbVarint(nil, functionID, uint64(id+1)), functionName, fn[0]), functionFile, fn[1]))
	}
	for _, s := range strs {
		b = pbBytes(b, profStrings, []byte(s))
	}
	var z bytes.Buffer
	zw := gzip.NewWriter(&z)
	zw.Write(b)
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "cpu.pprof")
	if err := os.WriteFile(path, z.Bytes(), 0o644); err != nil {
		t.Fatal(err)
	}

	p, err := readProfile(path)
	if err != nil {
		t.Fatal(err)
	}
	got, total := p.attribute()
	want := map[string]float64{"cpu.sim.proc": 0.01, "cpu.network.fabric": 0.02, "cpu.runtime": 0.04}
	for k, v := range want {
		if math.Abs(got[k]-v) > 1e-12 {
			t.Errorf("%s = %v, want %v (all: %v)", k, got[k], v, got)
		}
	}
	if math.Abs(total-0.07) > 1e-12 {
		t.Errorf("total = %v, want 0.07", total)
	}
}

func TestSelfTimesSubtractChildUnion(t *testing.T) {
	ms := time.Millisecond
	tr := &tracer{spans: []span{
		{name: "rep", parent: -1, start: 0, end: 100 * ms},
		{name: "a", parent: 0, start: 10 * ms, end: 50 * ms},
		{name: "b", parent: 0, start: 30 * ms, end: 70 * ms}, // overlaps a
		{name: "c", parent: 1, start: 20 * ms, end: 30 * ms},
		{name: "open", parent: 0, start: 80 * ms}, // left open by a panic
	}}
	self := tr.selfTimes()
	want := []time.Duration{40 * ms, 30 * ms, 40 * ms, 10 * ms, 0}
	for i, w := range want {
		if self[i] != w {
			t.Errorf("self[%s] = %v, want %v", tr.spans[i].name, self[i], w)
		}
	}
	lanes := tr.lanes()
	if lanes[0] != 0 || lanes[1] != 0 || lanes[3] != 0 || lanes[2] != 1 {
		t.Errorf("lanes = %v, want rep, a and c on 0 and b on 1", lanes)
	}
}
