package machine

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

func TestAllMachinesValidate(t *testing.T) {
	for _, m := range All() {
		if err := m.Validate(); err != nil {
			t.Errorf("%s: %v", m.Name, err)
		}
	}
}

func TestTable1Parameters(t *testing.T) {
	// The headline rows of Table 1 of the paper.
	xt3 := XT3()
	if xt3.CPU.ClockGHz != 2.4 || xt3.CoresPerNode != 1 {
		t.Errorf("XT3 processor config wrong: %+v", xt3.CPU)
	}
	if xt3.Mem.PeakBW != 6.4e9 {
		t.Errorf("XT3 memory bandwidth = %v, want 6.4 GB/s", xt3.Mem.PeakBW)
	}
	if xt3.NIC.InjBW != 2.2e9 {
		t.Errorf("XT3 injection bandwidth = %v, want 2.2 GB/s", xt3.NIC.InjBW)
	}
	if xt3.TotalNodes != 5212 {
		t.Errorf("XT3 sockets = %d, want 5212", xt3.TotalNodes)
	}

	dc := XT3DualCore()
	if dc.CPU.ClockGHz != 2.6 || dc.CoresPerNode != 2 {
		t.Errorf("XT3-DC processor config wrong: %+v", dc.CPU)
	}
	if dc.Mem.PeakBW != 6.4e9 {
		t.Errorf("XT3-DC kept DDR-400: bw = %v", dc.Mem.PeakBW)
	}

	xt4 := XT4()
	if xt4.CPU.ClockGHz != 2.6 || xt4.CoresPerNode != 2 {
		t.Errorf("XT4 processor config wrong: %+v", xt4.CPU)
	}
	if xt4.Mem.PeakBW != 10.6e9 {
		t.Errorf("XT4 memory bandwidth = %v, want 10.6 GB/s", xt4.Mem.PeakBW)
	}
	if xt4.NIC.InjBW != 4.0e9 {
		t.Errorf("XT4 injection bandwidth = %v, want 4 GB/s", xt4.NIC.InjBW)
	}
	if xt4.TotalNodes != 6296 {
		t.Errorf("XT4 sockets = %d, want 6296", xt4.TotalNodes)
	}
	if xt4.MaxCores() != 12592 {
		t.Errorf("XT4 cores = %d, want 12592", xt4.MaxCores())
	}
}

func TestLinkRateUnchangedXT3ToXT4(t *testing.T) {
	// §5.1.3: the SeaStar-to-SeaStar link bandwidth did not change, which
	// is why PTRANS per socket is flat between the systems.
	if XT3().Link.BW != XT4().Link.BW {
		t.Error("link bandwidth should be identical between XT3 and XT4")
	}
}

func TestCalibrationAnchors(t *testing.T) {
	// Large-message ping-pong bandwidth anchors from §5.1.1.
	if bw := XT3().NIC.EffBW(); bw < 1.0e9 || bw > 1.3e9 {
		t.Errorf("XT3 effective NIC bw = %v, want ≈ 1.15 GB/s", bw)
	}
	if bw := XT4().NIC.EffBW(); bw < 1.9e9 || bw > 2.2e9 {
		t.Errorf("XT4 effective NIC bw = %v, want ≈ 2.05 GB/s", bw)
	}
	// STREAM triad anchors from Figure 7.
	if bw := XT3().Mem.StreamBW(); bw < 4.0e9 || bw > 4.5e9 {
		t.Errorf("XT3 stream bw = %v, want ≈ 4.2 GB/s", bw)
	}
	if bw := XT4().Mem.StreamBW(); bw < 6.7e9 || bw > 7.3e9 {
		t.Errorf("XT4 stream bw = %v, want ≈ 7.0 GB/s", bw)
	}
	// GUPS anchors from Figure 6 (socket random-access rate, in 1e9
	// updates/s).
	if g := XT3().Mem.RandomRate() / 1e9; g < 0.011 || g > 0.016 {
		t.Errorf("XT3 random rate = %v GUPS, want ≈ 0.013", g)
	}
	if g := XT4().Mem.RandomRate() / 1e9; g < 0.018 || g > 0.024 {
		t.Errorf("XT4 random rate = %v GUPS, want ≈ 0.021", g)
	}
}

func TestPeakGF(t *testing.T) {
	if gf := XT4().CPU.PeakGF(); gf != 5.2 {
		t.Errorf("XT4 peak = %v GF, want 5.2", gf)
	}
	if gf := X1E().CPU.PeakGF(); gf < 17.5 || gf > 18.5 {
		t.Errorf("X1E MSP peak = %v GF, want ≈ 18", gf)
	}
	if gf := P575().CPU.PeakGF(); gf != 7.6 {
		t.Errorf("p575 peak = %v GF, want 7.6", gf)
	}
	if gf := SP().CPU.PeakGF(); gf != 1.5 {
		t.Errorf("SP peak = %v GF, want 1.5", gf)
	}
	if gf := P690().CPU.PeakGF(); gf != 5.2 {
		t.Errorf("p690 peak = %v GF, want 5.2", gf)
	}
	if gf := EarthSimulator().CPU.PeakGF(); gf != 8.0 {
		t.Errorf("ES peak = %v GF, want 8", gf)
	}
}

func TestTorusForCoversRequest(t *testing.T) {
	m := XT4()
	for _, n := range []int{1, 2, 7, 64, 500, 1024, 5000, 6296} {
		tor := m.TorusFor(n)
		if tor.Nodes() < n {
			t.Errorf("TorusFor(%d) = %v with only %d nodes", n, tor, tor.Nodes())
		}
		if tor.Nodes() > 3*n+8 {
			t.Errorf("TorusFor(%d) = %v wastes too many nodes", n, tor)
		}
	}
}

func TestTorusForFlatTopology(t *testing.T) {
	tor := P575().TorusFor(50)
	if tor.NY != 1 || tor.NZ != 1 || tor.NX != 50 {
		t.Errorf("flat topology torus = %v, want 50x1x1", tor)
	}
}

func TestByName(t *testing.T) {
	m, err := ByName("XT4")
	if err != nil || m.Name != "XT4" {
		t.Fatalf("ByName(XT4) = %v, %v", m.Name, err)
	}
	if _, err := ByName("XT9"); err == nil {
		t.Fatal("ByName(XT9) should fail")
	}
}

func TestModeString(t *testing.T) {
	if SN.String() != "SN" || VN.String() != "VN" {
		t.Fatal("mode strings wrong")
	}
}

func TestMachineString(t *testing.T) {
	s := XT4().String()
	for _, want := range []string{"XT4", "6296", "DDR2-667"} {
		if !strings.Contains(s, want) {
			t.Errorf("String() = %q missing %q", s, want)
		}
	}
}

func TestValidateCatchesBadConfigs(t *testing.T) {
	good := XT4()
	cases := []func(*Machine){
		func(m *Machine) { m.Name = "" },
		func(m *Machine) { m.CoresPerNode = 0 },
		func(m *Machine) { m.TotalNodes = 0 },
		func(m *Machine) { m.CPU.ClockGHz = 0 },
		func(m *Machine) { m.CPU.DGEMMEff = 1.5 },
		func(m *Machine) { m.Mem.PeakBW = 0 },
		func(m *Machine) { m.Mem.StreamEff = 0 },
		func(m *Machine) { m.Mem.LatencyNS = 0 },
		func(m *Machine) { m.NIC.InjBW = 0 },
		func(m *Machine) { m.NIC.Eff = 2 },
		func(m *Machine) { m.NIC.MemcpyBW = 0 },
		func(m *Machine) { m.Link.BW = 0 },
		func(m *Machine) { m.Link.HopLatencyUS = -1 },
		func(m *Machine) { m.NIC.SendOverheadUS = -5 },
		func(m *Machine) { m.NIC.RecvOverheadUS = -5 },
		func(m *Machine) { m.NIC.VNMediationUS = -5 },
		func(m *Machine) { m.NIC.VNProxyUS = -5 },
	}
	for i, mutate := range cases {
		m := good
		mutate(&m)
		if err := m.Validate(); err == nil {
			t.Errorf("case %d: invalid machine passed validation", i)
		}
	}
}

// TestValidateRejectsNonFinite sets each float parameter of a valid
// machine, one at a time, to NaN and to each infinity: every variant must
// fail validation. A NaN that slipped through would surface only later; a
// NaN SendOverheadUS, for one, as a scheduling panic at the first message.
// The walk is by reflection, so it covers a float field added later too.
func TestValidateRejectsNonFinite(t *testing.T) {
	good := XT4()
	mt := reflect.TypeOf(good)
	fields := 0
	for i := 0; i < mt.NumField(); i++ {
		st := mt.Field(i).Type
		if st.Kind() != reflect.Struct {
			continue
		}
		for j := 0; j < st.NumField(); j++ {
			if st.Field(j).Type.Kind() != reflect.Float64 {
				continue
			}
			fields++
			for _, v := range []float64{math.NaN(), math.Inf(1), math.Inf(-1)} {
				m := good
				reflect.ValueOf(&m).Elem().Field(i).Field(j).SetFloat(v)
				if m.Validate() == nil {
					t.Errorf("%s.%s = %v passed validation", mt.Field(i).Name, st.Field(j).Name, v)
				}
			}
		}
	}
	if fields == 0 {
		t.Fatal("found no float parameters")
	}
}

func TestCombinedMachine(t *testing.T) {
	c := CombinedXT3XT4()
	if c.TotalNodes != 5212+6296 {
		t.Fatalf("combined nodes = %d", c.TotalNodes)
	}
	if c.MaxCores() != 23016 {
		t.Fatalf("combined cores = %d", c.MaxCores())
	}
	// Homogenised memory bandwidth sits between the two populations.
	if c.Mem.PeakBW <= XT3().Mem.PeakBW || c.Mem.PeakBW >= XT4().Mem.PeakBW {
		t.Fatalf("combined memory bw = %v, want between 6.4 and 10.6 GB/s", c.Mem.PeakBW)
	}
	if c.NIC.InjBW <= XT3().NIC.InjBW || c.NIC.InjBW >= XT4().NIC.InjBW {
		t.Fatalf("combined injection bw = %v", c.NIC.InjBW)
	}
	if err := c.Validate(); err != nil {
		t.Fatal(err)
	}
}

func TestXT4FullPreset(t *testing.T) {
	f := XT4Full()
	if f.Name != "XT4-full" {
		t.Fatalf("name = %q", f.Name)
	}
	// The preset is the compute partition of the combined system: the
	// paper's 23,016-core headline figure, reachable by name.
	if f.MaxCores() != 23016 {
		t.Fatalf("full-machine cores = %d, want 23016", f.MaxCores())
	}
	c := CombinedXT3XT4()
	c.Name = f.Name
	if f != c {
		t.Fatalf("XT4Full must differ from CombinedXT3XT4 only by name")
	}
	if _, err := ByName("XT4-full"); err != nil {
		t.Fatalf("ByName: %v", err)
	}
}
