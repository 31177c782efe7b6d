package lustre

import (
	"testing"

	"xtsim/internal/core"
	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
	"xtsim/internal/telemetry"
	"xtsim/internal/timeline"
)

func testFS(t *testing.T, cfg Config) (*sim.Engine, *FS) {
	t.Helper()
	eng := sim.NewEngine()
	fab := network.New(eng, machine.XT4(), 64)
	fs, err := New(eng, fab, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return eng, fs
}

// withIOStats installs a telemetry-only probe on fs and returns its I/O
// counters.
func withIOStats(fs *FS) *telemetry.IOStats {
	probe := timeline.NewProbe(nil, nil)
	probe.IO = telemetry.NewIOStats(fs.OSTs())
	fs.InstallProbe(probe)
	return probe.IO
}

func TestDefaultConfigValid(t *testing.T) {
	if err := DefaultConfig().Validate(); err != nil {
		t.Fatal(err)
	}
	if DefaultConfig().TotalOSTs() != 72 {
		t.Fatalf("total OSTs = %d", DefaultConfig().TotalOSTs())
	}
}

func TestConfigValidation(t *testing.T) {
	bad := []func(*Config){
		func(c *Config) { c.OSSCount = 0 },
		func(c *Config) { c.OSTsPerOSS = 0 },
		func(c *Config) { c.OSTBandwidth = 0 },
		func(c *Config) { c.MDSOpLatency = 0 },
		func(c *Config) { c.DefaultStripeCount = 0 },
		func(c *Config) { c.DefaultStripeCount = 1000 },
		func(c *Config) { c.StripeSize = 0 },
	}
	for i, mutate := range bad {
		c := DefaultConfig()
		mutate(&c)
		if err := c.Validate(); err == nil {
			t.Errorf("case %d passed validation", i)
		}
	}
}

func TestCreatePaysMDSLatency(t *testing.T) {
	cfg := DefaultConfig()
	eng, fs := testFS(t, cfg)
	var created sim.Time
	eng.Spawn("client", func(p *sim.Proc) {
		f := fs.Create(p, 4)
		created = p.Now()
		if f.StripeCount != 4 {
			t.Errorf("stripe count = %d", f.StripeCount)
		}
	})
	eng.Run()
	if created < cfg.MDSOpLatency {
		t.Fatalf("create returned at %v, before MDS latency %v", created, cfg.MDSOpLatency)
	}
}

func TestMDSSerialisesMetadataStorm(t *testing.T) {
	// §2: one MDS can bottleneck metadata operations at large scale. N
	// concurrent creates must take ≈ N × op latency.
	cfg := DefaultConfig()
	eng, fs := testFS(t, cfg)
	const clients = 50
	for i := 0; i < clients; i++ {
		eng.Spawn("c", func(p *sim.Proc) { fs.Create(p, 1) })
	}
	end := eng.Run()
	want := clients * cfg.MDSOpLatency
	if end < 0.95*want {
		t.Fatalf("metadata storm took %v, want ≈ %v (serialised)", end, want)
	}
	if fs.MetaOps != clients {
		t.Fatalf("MetaOps = %d", fs.MetaOps)
	}
}

func TestDefaultStripeCountApplied(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	eng.Spawn("c", func(p *sim.Proc) {
		f := fs.Create(p, 0)
		if f.StripeCount != fs.Cfg.DefaultStripeCount {
			t.Errorf("stripe count = %d, want default %d", f.StripeCount, fs.Cfg.DefaultStripeCount)
		}
	})
	eng.Run()
}

func TestStripingSpreadsAcrossOSTs(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	eng.Spawn("c", func(p *sim.Proc) {
		f := fs.Create(p, 4)
		seen := map[int]bool{}
		for off := int64(0); off < 4*f.StripeSize; off += f.StripeSize {
			seen[f.ostFor(off)] = true
		}
		if len(seen) != 4 {
			t.Errorf("4-stripe file touched %d OSTs", len(seen))
		}
		// Offsets one stripe-cycle apart land on the same OST.
		if f.ostFor(0) != f.ostFor(4*f.StripeSize) {
			t.Error("striping not cyclic")
		}
	})
	eng.Run()
}

func TestWiderStripingFasterForLargeFile(t *testing.T) {
	// The point of striping: one client writing a big file gets more
	// aggregate disk behind it.
	write := func(stripes int) sim.Time {
		eng, fs := testFS(t, DefaultConfig())
		var took sim.Time
		eng.Spawn("c", func(p *sim.Proc) {
			f := fs.Create(p, stripes)
			start := p.Now()
			f.Write(p, 0, 0, 64<<20)
			took = p.Now() - start
		})
		eng.Run()
		return took
	}
	narrow := write(1)
	wide := write(8)
	if wide >= narrow {
		t.Fatalf("8-stripe write (%v) should beat 1-stripe (%v)", wide, narrow)
	}
	// With 8 stripes the 64 MB write approaches 8x one OST's bandwidth.
	if ratio := narrow / wide; ratio < 3 {
		t.Fatalf("striping speedup = %.1fx, want > 3x", ratio)
	}
}

func TestReadAndWriteAccounting(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	tel := withIOStats(fs)
	eng.Spawn("c", func(p *sim.Proc) {
		f := fs.Create(p, 2)
		f.Write(p, 0, 0, 1<<20)
		f.Read(p, 0, 0, 1<<20)
	})
	eng.Run()
	if tel.ClientBytesWritten != 1<<20 || tel.ClientBytesRead != 1<<20 {
		t.Fatalf("accounting: wrote %d read %d", tel.ClientBytesWritten, tel.ClientBytesRead)
	}
}

func TestZeroLengthTransferNoOp(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	eng.Spawn("c", func(p *sim.Proc) {
		f := fs.Create(p, 1)
		before := p.Now()
		f.Write(p, 0, 0, 0)
		if p.Now() != before {
			t.Error("zero-length write consumed time")
		}
	})
	eng.Run()
}

func TestIORStripeSweep(t *testing.T) {
	// Aggregate bandwidth from many clients on one shared file improves
	// with stripe count until OSS/OST resources saturate.
	bw := func(stripes int) float64 {
		sys := core.NewSystem(machine.XT4(), machine.SN, 16)
		res, err := RunIOR(sys, DefaultConfig(), IORParams{
			Tasks:        16,
			BytesPerTask: 8 << 20,
			TransferSize: 1 << 20,
			StripeCount:  stripes,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.WriteBW
	}
	one := bw(1)
	eight := bw(8)
	if eight <= one {
		t.Fatalf("shared-file write bw: 8 stripes %.3g should beat 1 stripe %.3g", eight, one)
	}
}

func TestIORFilePerProcessScales(t *testing.T) {
	run := func(tasks int) float64 {
		sys := core.NewSystem(machine.XT4(), machine.SN, tasks)
		res, err := RunIOR(sys, DefaultConfig(), IORParams{
			Tasks:          tasks,
			BytesPerTask:   4 << 20,
			TransferSize:   1 << 20,
			StripeCount:    1,
			FilePerProcess: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		return res.WriteBW
	}
	small := run(4)
	large := run(32)
	if large <= small {
		t.Fatalf("file-per-process bw should scale: %d clients %.3g vs %.3g", 32, large, small)
	}
}

func TestIORMetadataStormVisible(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 64)
	res, err := RunIOR(sys, DefaultConfig(), IORParams{
		Tasks:          64,
		BytesPerTask:   1 << 20,
		TransferSize:   1 << 20,
		StripeCount:    1,
		FilePerProcess: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	// 64 serialised creates at 250 µs each ≈ 16 ms.
	if res.MetaSeconds < 0.014 {
		t.Fatalf("metadata phase %.4f s, want ≥ ~0.016 (single MDS)", res.MetaSeconds)
	}
}

func TestIORValidation(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 2)
	if _, err := RunIOR(sys, DefaultConfig(), IORParams{Tasks: 0, BytesPerTask: 1, TransferSize: 1}); err == nil {
		t.Error("zero tasks accepted")
	}
	if _, err := RunIOR(sys, DefaultConfig(), IORParams{Tasks: 2, BytesPerTask: 10, TransferSize: 100}); err == nil {
		t.Error("transfer > total accepted")
	}
}

// TestStripedTransferDeterministic guards the fixed map-iteration bug:
// launching stripe transfers in map order randomised resource-reservation
// order, so the same striped write finished at a different simulated time
// on different runs. The multi-client contention makes ordering matter.
func TestStripedTransferDeterministic(t *testing.T) {
	run := func() sim.Time {
		eng, fs := testFS(t, DefaultConfig())
		const clients = 8
		for c := 0; c < clients; c++ {
			c := c
			eng.Spawn("client", func(p *sim.Proc) {
				f := fs.Create(p, 16)
				f.Write(p, c, 0, 48<<20)
			})
		}
		eng.Run()
		return eng.Now()
	}
	first := run()
	for i := 0; i < 5; i++ {
		if got := run(); got != first {
			t.Fatalf("run %d finished at %v, first run at %v", i, got, first)
		}
	}
}

func TestOSTForBoundariesAndWraparound(t *testing.T) {
	_, fs := testFS(t, DefaultConfig())
	total := fs.Cfg.TotalOSTs()
	s := fs.Cfg.StripeSize
	// A file whose first OST sits at the end of the OST range: the stripe
	// cycle must wrap around modulo the deployment, not run off the end.
	f := &File{fs: fs, StripeCount: 4, StripeSize: s, firstOST: total - 2}
	wantCycle := []int{total - 2, total - 1, 0, 1}
	for i, want := range wantCycle {
		if got := f.ostFor(int64(i) * s); got != want {
			t.Errorf("stripe %d: ostFor = %d, want %d", i, got, want)
		}
	}
	// Offsets exactly on a stripe boundary belong to the new stripe; the
	// last byte before it still belongs to the old one.
	if f.ostFor(s) == f.ostFor(s-1) {
		t.Error("stripe boundary offset mapped to the previous stripe")
	}
	if got, want := f.ostFor(4*s), f.ostFor(0); got != want {
		t.Errorf("one full cycle later: ostFor = %d, want %d", got, want)
	}
	// Non-power-of-two stripe count cycles with period 3.
	f3 := &File{fs: fs, StripeCount: 3, StripeSize: s, firstOST: total - 1}
	seen := map[int]bool{}
	for i := 0; i < 6; i++ {
		seen[f3.ostFor(int64(i)*s)] = true
	}
	if len(seen) != 3 {
		t.Errorf("3-stripe file touched %d OSTs over two cycles, want 3", len(seen))
	}
	if f3.ostFor(0) != f3.ostFor(3*s) || f3.ostFor(0) == f3.ostFor(2*s) {
		t.Error("3-stripe cycle broken")
	}
}

func TestCreateRejectsStripeCountOutOfRange(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	for _, stripes := range []int{-1, fs.Cfg.TotalOSTs() + 1} {
		stripes := stripes
		eng.Spawn("c", func(p *sim.Proc) {
			defer func() {
				if recover() == nil {
					t.Errorf("Create(%d) did not panic", stripes)
				}
			}()
			fs.Create(p, stripes)
		})
	}
	eng.Run()
}

func TestIORStripeCountBeyondOSTsRejected(t *testing.T) {
	sys := core.NewSystem(machine.XT4(), machine.SN, 2)
	_, err := RunIOR(sys, DefaultConfig(), IORParams{
		Tasks: 2, BytesPerTask: 1 << 20, TransferSize: 1 << 20,
		StripeCount: DefaultConfig().TotalOSTs() + 1,
	})
	if err == nil {
		t.Fatal("stripe count beyond the deployment accepted")
	}
	if _, err := RunIOR(sys, DefaultConfig(), IORParams{
		Tasks: 2, BytesPerTask: 1 << 20, TransferSize: 1 << 20, StripeCount: -1,
	}); err == nil {
		t.Fatal("negative stripe count accepted")
	}
}

func TestWriteBehindOverlapsAndAwaits(t *testing.T) {
	eng, fs := testFS(t, DefaultConfig())
	tel := withIOStats(fs)
	eng.Spawn("c", func(p *sim.Proc) {
		f := fs.Create(p, 2)
		issued := p.Now()
		req := f.WriteBehind(p, 0, 0, 64<<20)
		if p.Now() != issued {
			t.Error("WriteBehind blocked the issuing process")
		}
		if req.Done() {
			t.Error("64 MB write-behind completed instantly")
		}
		req.Await(p)
		if !req.Done() {
			t.Error("Await returned before completion")
		}
		if req.Finish() != p.Now() {
			t.Errorf("Finish = %v, now = %v", req.Finish(), p.Now())
		}
	})
	eng.Run()
	if tel.ClientBytesWritten != 64<<20 {
		t.Fatalf("accounting after write-behind: %d", tel.ClientBytesWritten)
	}
}

func TestBypassFabricPricesServiceLegsOnly(t *testing.T) {
	// With BypassFabric the transfer still pays OSS network and OST disk
	// time, so a large write takes about as long as the routed one minus
	// only the torus legs — and strictly more than zero.
	write := func(bypass bool) sim.Time {
		cfg := DefaultConfig()
		cfg.BypassFabric = bypass
		eng, fs := testFS(t, cfg)
		var took sim.Time
		eng.Spawn("c", func(p *sim.Proc) {
			f := fs.Create(p, 4)
			start := p.Now()
			f.Write(p, 0, 0, 64<<20)
			took = p.Now() - start
		})
		eng.Run()
		return took
	}
	routed, bypassed := write(false), write(true)
	if bypassed <= 0 {
		t.Fatalf("bypassed write took %v, service legs unpriced", bypassed)
	}
	if bypassed > routed {
		t.Fatalf("bypassed write (%v) slower than routed (%v)", bypassed, routed)
	}
}

func TestTelemetryConservationOnMixedTraffic(t *testing.T) {
	for _, bypass := range []bool{false, true} {
		cfg := DefaultConfig()
		cfg.BypassFabric = bypass
		eng := sim.NewEngine()
		fab := network.NewWithSIO(eng, machine.XT4(), 16, cfg.OSSCount)
		fs, err := New(eng, fab, cfg)
		if err != nil {
			t.Fatal(err)
		}
		tel := withIOStats(fs)
		for c := 0; c < 4; c++ {
			c := c
			eng.Spawn("client", func(p *sim.Proc) {
				f := fs.Create(p, 3)
				f.Write(p, c, 0, 7<<20)
				f.Read(p, c, 1<<20, 2<<20)
				req := f.WriteBehind(p, c, 3<<20, 5<<20)
				req.Await(p)
			})
		}
		eng.Run()
		rep := fs.TelemetryReport(float64(eng.Now()))
		if rep == nil {
			t.Fatal("telemetry enabled but report is nil")
		}
		if err := rep.CheckConservation(); err != nil {
			t.Errorf("bypass=%v: %v", bypass, err)
		}
		if want := int64(4 * (7 + 5) << 20); rep.ClientBytesWritten != want {
			t.Errorf("bypass=%v: client write bytes = %d, want %d", bypass, rep.ClientBytesWritten, want)
		}
		if rep.WriteCount != uint64(2*4) {
			t.Errorf("bypass=%v: write count = %d, want 8", bypass, rep.WriteCount)
		}
		if tel.ClientBytesRead != int64(4*2<<20) {
			t.Errorf("bypass=%v: client read bytes = %d", bypass, tel.ClientBytesRead)
		}
	}
}

func TestSIONodePlacementUsed(t *testing.T) {
	// On a system with an SIO partition the OSS servers sit on the reserved
	// nodes, round-robin; without one they keep the legacy top-of-range
	// placement (pre-subsystem byte-identity).
	eng := sim.NewEngine()
	fab := network.NewWithSIO(eng, machine.XT4(), 16, 4)
	fs, err := New(eng, fab, DefaultConfig())
	if err != nil {
		t.Fatal(err)
	}
	sio := map[int]bool{}
	for _, n := range fab.SIONodes() {
		sio[n] = true
	}
	for i, node := range fs.ostNode {
		if !sio[node] {
			t.Fatalf("OST %d served from node %d, outside the SIO partition %v", i, node, fab.SIONodes())
		}
	}
}
