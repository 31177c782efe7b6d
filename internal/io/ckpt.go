// Package ckpt is the checkpoint/restart I/O subsystem: it couples the
// Lustre filesystem model to the applications, the torus, telemetry, and
// the critical-path analyzer. Apps call a Writer between iterations; each
// checkpoint epoch writes the ranks' domain state to striped Lustre files
// over real fabric links to the system's SIO nodes, so checkpoint bursts
// genuinely contend with halo and collective traffic (the paper's §2
// storage architecture meeting its §5/§6 communication studies).
//
// Two file layouts are modeled: N-to-N (every rank writes its own file —
// an open storm on the single MDS, maximal OST parallelism) and N-to-M
// collective buffering (ranks ship state to a subset of aggregator ranks
// over MPI, which write fewer, larger files).
//
// Checkpoint epochs are barrier-bracketed by a skew-preserving quiesce:
// once every rank has drained its previous flush and issued this epoch's,
// all ranks resume delayed by one common duration — the epoch is a pure
// time-shift that preserves the ranks' relative skew exactly. That is what
// keeps the experiment's control arm clean: with DisableTraffic set (and
// the N-to-N layout, which sends no MPI aggregation traffic), the steps of
// a checkpointed run replay the no-checkpoint run's schedule, so any
// compute-phase slowdown measured with traffic on is network interference
// and nothing else.
package ckpt

import (
	"fmt"

	"xtsim/internal/core"
	"xtsim/internal/lustre"
	"xtsim/internal/mpi"
	"xtsim/internal/sim"
)

// Mode selects the checkpoint file layout.
type Mode int

const (
	// NtoN writes one file per rank.
	NtoN Mode = iota
	// NtoM ships rank state to aggregator ranks (collective buffering);
	// only aggregators touch the filesystem.
	NtoM
)

func (m Mode) String() string {
	if m == NtoM {
		return "N-to-M"
	}
	return "N-to-N"
}

// tagCkpt is the MPI tag base for N-to-M aggregation traffic, far above
// any application tag so checkpoint messages never match app receives.
const tagCkpt = 1 << 20

// Config parameterises a checkpoint writer.
type Config struct {
	// FS sizes the Lustre deployment; the zero value means
	// lustre.DefaultConfig().
	FS lustre.Config
	// Mode is the file layout (default NtoN).
	Mode Mode
	// Aggregators is the writer count in NtoM mode; 0 picks one aggregator
	// per 4 ranks (a common collective-buffering ratio).
	Aggregators int
	// StripeCount is the per-file stripe count; 0 uses the filesystem
	// default, and counts beyond TotalOSTs are clamped to it (full-width
	// striping), matching `lfs setstripe -c -1` semantics.
	StripeCount int
	// DisableTraffic routes checkpoint bytes around the torus (the OSS/OST
	// service legs are still priced): the control arm of interference
	// experiments. Maps to lustre.Config.BypassFabric.
	DisableTraffic bool
}

// Writer is the checkpoint phase primitive handed to applications. One
// Writer serves all ranks of a system; per-rank state is indexed by rank
// id and only ever touched from that rank's process, so the single-
// threaded engine needs no locking (parallel/hybrid execution is declined
// by lustre.Attach → core.AttachIO).
type Writer struct {
	// FS is the backing filesystem, exported for telemetry inspection.
	FS *lustre.FS

	mode        Mode
	aggregators int
	groupSize   int
	stripes     int

	files   []*lustre.File
	pending []*lustre.WriteRequest

	// quiesce barrier state (skew-preserving: all ranks resume delayed by
	// one common duration, see quiesce).
	barWaiting int
	barMinT0   sim.Time
	barRelease sim.Time
	barCond    sim.Condition

	// Epochs counts completed checkpoint epochs (as observed by rank 0).
	Epochs int
}

// Attach builds the checkpoint subsystem on sys: a Lustre filesystem on
// the system's fabric (SIO-node OSS placement when the system has an SIO
// partition, telemetry when enabled — see lustre.Attach) and a Writer over
// it for the system's ranks.
func Attach(sys *core.System, cfg Config) (*Writer, error) {
	if cfg.FS == (lustre.Config{}) {
		cfg.FS = lustre.DefaultConfig()
	}
	if cfg.DisableTraffic {
		cfg.FS.BypassFabric = true
	}
	fs, err := lustre.Attach(sys, cfg.FS)
	if err != nil {
		return nil, err
	}
	stripes := cfg.StripeCount
	switch {
	case stripes < 0:
		return nil, fmt.Errorf("ckpt: stripe count %d", stripes)
	case stripes == 0:
		stripes = cfg.FS.DefaultStripeCount
	case stripes > cfg.FS.TotalOSTs():
		stripes = cfg.FS.TotalOSTs()
	}
	w := &Writer{
		FS:      fs,
		mode:    cfg.Mode,
		stripes: stripes,
		files:   make([]*lustre.File, sys.NumTasks),
		pending: make([]*lustre.WriteRequest, sys.NumTasks),
	}
	if cfg.Mode == NtoM {
		aggs := cfg.Aggregators
		if aggs == 0 {
			aggs = (sys.NumTasks + 3) / 4
		}
		if aggs < 1 || aggs > sys.NumTasks {
			return nil, fmt.Errorf("ckpt: %d aggregators for %d ranks", aggs, sys.NumTasks)
		}
		w.aggregators = aggs
		w.groupSize = (sys.NumTasks + aggs - 1) / aggs
	}
	return w, nil
}

// Checkpoint writes one full checkpoint epoch synchronously: every rank's
// bytes are on the OSTs when the call returns. Collective over all ranks.
func (w *Writer) Checkpoint(p *mpi.P, bytesPerRank int64) {
	w.epoch(p, bytesPerRank, true)
}

// CheckpointAsync issues a write-behind checkpoint epoch: stripe traffic
// departs (reserving torus links, where interference with compute traffic
// comes from) but the ranks resume compute while the flush is in flight.
// The previous epoch's write-behind, if still outstanding, is drained
// first — inside the epoch, so its wait is covered by the common quiesce
// delay. Call Drain after the last epoch before the data is needed on
// stable storage. Collective over all ranks.
func (w *Writer) CheckpointAsync(p *mpi.P, bytesPerRank int64) {
	w.epoch(p, bytesPerRank, false)
}

// epoch runs one checkpoint epoch: drain the rank's previous write-behind,
// flush (sync or write-behind), then the skew-preserving quiesce. The whole
// region is attributed to the File I/O op class, whose end the MPI runtime
// also records as a timeline "ckpt" span and a critical-path io_wait
// segment (mpi.P.IOEnd).
func (w *Writer) epoch(p *mpi.P, bytesPerRank int64, sync bool) {
	t0 := p.Now()
	start := p.IOBegin()
	w.drainRank(p)
	switch w.mode {
	case NtoM:
		w.flushNtoM(p, bytesPerRank, sync)
	default:
		w.flushNtoN(p, bytesPerRank, sync)
	}
	w.quiesce(p, t0)
	p.IOEnd(start)
	if p.Rank() == 0 {
		w.Epochs++
	}
}

// flushNtoN: each rank writes its own file. The first epoch creates it
// (the N-way open storm on the single MDS); later epochs re-open.
func (w *Writer) flushNtoN(p *mpi.P, bytesPerRank int64, sync bool) {
	w.writeAs(p, p.Rank(), bytesPerRank, sync)
}

// flushNtoM: non-aggregators ship their state to the group's aggregator
// over MPI (real torus traffic), aggregators write the group total.
func (w *Writer) flushNtoM(p *mpi.P, bytesPerRank int64, sync bool) {
	me, n := p.Rank(), p.Size()
	agg := (me / w.groupSize) * w.groupSize
	if me != agg {
		p.Send(agg, tagCkpt+me-agg, bytesPerRank)
		return
	}
	members := w.groupSize
	if agg+members > n {
		members = n - agg
	}
	for r := 1; r < members; r++ {
		p.Recv(agg+r, tagCkpt+r)
	}
	w.writeAs(p, me, bytesPerRank*int64(members), sync)
}

// writeAs performs rank me's file write: blocking when sync, write-behind
// otherwise (the request parks in pending for Drain). The first epoch
// creates the file — the N-way open storm on the single MDS — and the
// writer keeps the handle open across epochs, so later flushes skip the
// metadata server and go straight to the OSTs (the standard checkpoint-
// writer optimisation; re-opening every epoch would hide flush/compute
// overlap behind serialized MDS latency).
func (w *Writer) writeAs(p *mpi.P, me int, bytes int64, sync bool) {
	proc, node := p.Task().Proc, p.Task().NodeID
	f := w.files[me]
	if f == nil {
		f = w.FS.Create(proc, w.stripes)
		w.files[me] = f
	}
	if sync {
		f.Write(proc, node, 0, bytes)
		return
	}
	w.pending[me] = f.WriteBehind(proc, node, 0, bytes)
}

// Drain blocks the calling rank until its outstanding write-behind flush
// (if any) has landed on the OSTs. Per-rank, not collective; ranks with
// nothing pending return immediately. Epochs drain implicitly, so apps only
// need this after the final checkpoint.
func (w *Writer) Drain(p *mpi.P) {
	if req := w.pending[p.Rank()]; req == nil || req.Done() {
		w.pending[p.Rank()] = nil
		return
	}
	start := p.IOBegin()
	w.drainRank(p)
	p.IOEnd(start)
}

// drainRank awaits the rank's pending write-behind request without opening
// its own I/O attribution region (epoch already holds one).
func (w *Writer) drainRank(p *mpi.P) {
	req := w.pending[p.Rank()]
	if req == nil {
		return
	}
	w.pending[p.Rank()] = nil
	if !req.Done() {
		req.Await(p.Task().Proc)
	}
}

// quiesce is the skew-preserving checkpoint barrier. Every rank entered the
// epoch at its own t0 and arrives here after its drain + metadata + flush
// issue; once all ranks have arrived, rank r resumes at t0_r + D with the
// common delay D = (last arrival) − (earliest t0). D covers every rank's
// own epoch work (arrival_r − t0_r ≤ D), and the uniform shift preserves
// the ranks' relative skew exactly — which is what lets the DisableTraffic
// control arm replay the no-checkpoint schedule (see the package comment).
func (w *Writer) quiesce(p *mpi.P, t0 sim.Time) {
	proc := p.Task().Proc
	if w.barWaiting == 0 || t0 < w.barMinT0 {
		w.barMinT0 = t0
	}
	w.barWaiting++
	if w.barWaiting < p.Size() {
		w.barCond.Await(proc)
	} else {
		w.barWaiting = 0
		w.barRelease = proc.Now() - w.barMinT0
		w.barCond.Broadcast()
	}
	// Guard: the min-t0 rank's target can round one ulp below now.
	if target := t0 + w.barRelease; target > proc.Now() {
		proc.WaitUntil(target)
	}
}
