package expt

import (
	"fmt"

	"xtsim/internal/apps/cam"
	"xtsim/internal/apps/pop"
	"xtsim/internal/apps/s3d"
	"xtsim/internal/core"
	"xtsim/internal/critpath"
	"xtsim/internal/machine"
)

// The critpath experiment turns the paper's two headline attribution claims
// into causal statements instead of profile correlations. §6.2 argues that
// MPI_Allreduce latency bounds POP's barotropic phase (Figure 19); §6.1
// attributes the SN/VN physics gap in CAM primarily to MPI_Alltoallv
// (Figure 16). A per-rank profile shows where time is *spent*; the
// critical-path walk shows which operations the makespan actually *waited
// on*. The experiment asserts both dominance claims on the extracted path
// (a failure is an experiment error, not a silently wrong table) and closes
// with S3D's slack distribution — the nearest-neighbour code where almost
// every rank is on the path and slack is thin.

func init() {
	register(Experiment{
		ID: "critpath", Artifact: "Extension",
		Title: "Critical-path attribution: what POP, CAM and S3D runs actually wait on",
		Run:   runCritPath,
	})
}

// checkCritPath validates the structural invariant every report must hold:
// the five attribution categories sum to the makespan (the walk partitions
// [0, makespan] exactly), within float addition error.
func checkCritPath(name string, rep *critpath.Report) error {
	d := rep.AttributionSum() - rep.MakespanSeconds
	if d < 0 {
		d = -d
	}
	if d > 1e-9 {
		return fmt.Errorf("critpath: %s attribution sums to %.12g s but makespan is %.12g s (|diff| %.3g > 1e-9)",
			name, rep.AttributionSum(), rep.MakespanSeconds, d)
	}
	if rep.Dropped > 0 {
		return fmt.Errorf("critpath: %s dropped %d records at the recorder cap; raise the cap for this scale",
			name, rep.Dropped)
	}
	return nil
}

// topClass returns the op class with the most critical-path time, or "-"
// when the path never blocked in MPI.
func topClass(rep *critpath.Report) critpath.Contributor {
	if len(rep.ByClass) == 0 {
		return critpath.Contributor{Name: "-"}
	}
	return rep.ByClass[0]
}

// attach stores the report's JSON export on the result when -critpath asked
// for it.
func attach(res *Result, o Options, name string, rep *critpath.Report) error {
	if !o.CritPath {
		return nil
	}
	return res.Attach("critpath", name, rep.WriteJSON)
}

func runCritPath(res *Result, o Options) error {
	popTasks, camTasks, s3dTasks := 64, 64, 64
	if o.Short {
		popTasks, camTasks, s3dTasks = 16, 16, 8
	}

	// Part 1 — POP barotropic (the Figure 19 ceiling, causally). Run the CG
	// phase alone with the recorder on, for standard CG and the
	// Chronopoulos–Gear variant, and attribute the critical path. The paper's
	// claim becomes an assertion: Allreduce must top the path's op classes.
	b := pop.TenthDegree()
	bCG := b
	bCG.ChronopoulosGear = true
	res.Textf("POP barotropic phase on XT4 VN, %d tasks, %d CG iterations:\n", popTasks, 8)
	t := res.Table()
	t.Row("variant", "phase (ms)", "compute", "mpi_wait", "net+queue", "top op class", "on path (ms)", "share")
	var popRep *critpath.Report
	for _, v := range []struct {
		label string
		bench pop.Benchmark
	}{{"standard CG", b}, {"Chronopoulos-Gear", bCG}} {
		sys := core.NewSystem(machine.XT4(), machine.VN, popTasks).EnableCritPath()
		elapsed := pop.RunBarotropic(sys, v.bench)
		res.AddSimSeconds(elapsed)
		rep := sys.CritPathReport()
		if err := checkCritPath("pop "+v.label, rep); err != nil {
			return err
		}
		net := rep.Category("queue_wait").Seconds + rep.Category("nic_injection").Seconds +
			rep.Category("link_transit").Seconds
		top := topClass(rep)
		t.Row(v.label, f3(elapsed*1e3),
			f3(rep.Category("compute").Seconds*1e3),
			f3(rep.Category("mpi_wait").Seconds*1e3),
			f3(net*1e3),
			top.Name, f3(top.Seconds*1e3), f3(top.Share))
		if v.label == "standard CG" {
			popRep = rep
			if top.Name != "Allreduce" {
				return fmt.Errorf("critpath: POP barotropic critical path is dominated by %s, expected Allreduce (§6.2)", top.Name)
			}
		}
	}
	res.Textln("(Allreduce tops the path's op classes: the phase waits on reduction latency, which is why halving the reductions — C-G — moves the phase and Figure 18's curve.)")
	if err := attach(res, o, "POP barotropic standard CG (XT4 VN)", popRep); err != nil {
		return err
	}

	// Part 2 — CAM physics SN vs VN (the Figure 16 gap, causally). Same task
	// count in both modes; the VN run's path must be dominated by
	// Alltoall(v), and the growth of its path share relative to SN is the
	// §6.1 explanation of the mode gap.
	cb := cam.DGrid()
	cfg, err := cam.Decompose(camTasks, cb)
	if err != nil {
		return err
	}
	res.Textln("")
	res.Textf("CAM physics phase on XT4, %d tasks, one step:\n", camTasks)
	t2 := res.Table()
	t2.Row("mode", "phase (ms)", "compute", "mpi_wait", "net+queue", "top op class", "on path (ms)", "share")
	var phase, a2av, comm [2]float64
	var vnRep *critpath.Report
	for i, mode := range []machine.Mode{machine.SN, machine.VN} {
		sys := core.NewSystem(machine.XT4(), mode, camTasks).EnableCritPath()
		elapsed := cam.RunPhysics(sys, cfg, cb)
		res.AddSimSeconds(elapsed)
		rep := sys.CritPathReport()
		if err := checkCritPath("cam physics "+mode.String(), rep); err != nil {
			return err
		}
		net := rep.Category("queue_wait").Seconds + rep.Category("nic_injection").Seconds +
			rep.Category("link_transit").Seconds
		phase[i] = elapsed
		a2av[i] = rep.Class("Alltoall(v)").Seconds
		comm[i] = rep.Category("mpi_wait").Seconds + net
		top := topClass(rep)
		t2.Row(mode.String(), f3(elapsed*1e3),
			f3(rep.Category("compute").Seconds*1e3),
			f3(rep.Category("mpi_wait").Seconds*1e3),
			f3(net*1e3),
			top.Name, f3(top.Seconds*1e3), f3(top.Share))
		if mode == machine.VN {
			vnRep = rep
			if top.Name != "Alltoall(v)" {
				return fmt.Errorf("critpath: CAM VN physics critical path is dominated by %s, expected Alltoall(v) (§6.1)", top.Name)
			}
		}
	}
	gap := phase[1] - phase[0]
	a2avDelta := a2av[1] - a2av[0]
	commDelta := comm[1] - comm[0]
	commShare := 0.0
	if commDelta > 0 {
		commShare = a2avDelta / commDelta
	}
	res.Textf("SN->VN physics gap: %s ms, of which path communication time grew %s ms; Alltoall(v) grew %s ms — %.0f%% of the communication growth (§6.1's \"primarily MPI_Alltoallv\" on the MPI side; the rest of the gap is VN memory contention in compute).\n",
		f3(gap*1e3), f3(commDelta*1e3), f3(a2avDelta*1e3), commShare*100)
	if a2avDelta <= 0 || a2avDelta < 0.5*commDelta {
		return fmt.Errorf("critpath: Alltoall(v) path growth %.6g ms explains only %.0f%% of CAM's SN->VN communication growth %.6g ms, expected the majority (§6.1)",
			a2avDelta*1e3, commShare*100, commDelta*1e3)
	}
	if err := attach(res, o, "CAM physics VN (XT4)", vnRep); err != nil {
		return err
	}

	// Part 3 — S3D slack. The nearest-neighbour weak-scaling code has no
	// collectives in its step, so slack — how much a rank could slow before
	// the makespan moves — is thin and evenly spread, the causal version of
	// Figure 22's near-perfect scaling.
	sys := core.NewSystem(machine.XT4(), machine.VN, s3dTasks).EnableCritPath()
	r := s3d.RunOn(sys, s3d.Weak50())
	res.AddSimSeconds(r.SecondsPerStep)
	rep := sys.CritPathReport()
	if err := checkCritPath("s3d", rep); err != nil {
		return err
	}
	res.Textln("")
	res.Textf("S3D one RK step on XT4 VN, %d tasks (makespan %s ms, %d path steps, %d rank hops):\n",
		s3dTasks, f3(rep.MakespanSeconds*1e3), rep.PathSteps, rep.PathHops)
	t3 := res.Table()
	t3.Row("slack", "rank", "[ms]")
	if s := rep.Slack; s != nil {
		t3.Row("min", itoa(s.MinRank), f3(s.MinSeconds*1e3))
		t3.Row("mean", "-", f3(s.MeanSeconds*1e3))
		t3.Row("max", itoa(s.MaxRank), f3(s.MaxSeconds*1e3))
		for i, c := range s.Top {
			if i >= 3 {
				break
			}
			t3.Row(fmt.Sprintf("top-%d", i+1), c.Name, f3(c.Seconds*1e3))
		}
	}
	if err := attach(res, o, "S3D weak-scaling step (XT4 VN)", rep); err != nil {
		return err
	}
	return nil
}
