// Package critpath is the simulator's causal observability layer: an
// opt-in recorder of per-rank blocked segments and the cross-rank
// happens-before edges that end them, plus a backward critical-path walk
// that turns one simulated run into an explanation of *why* it took the
// time it did.
//
// The paper's application analysis is exactly this kind of root-cause
// argument — Fig 16 attributes most of CAM's SN/VN physics gap to
// MPI_Alltoallv, Fig 19 pins POP's barotropic ceiling on MPI_Allreduce
// latency. PR 4's telemetry reports who was busy; this package reports who
// was waiting on whom, and which waits actually bound the runtime.
//
// Design invariants (DESIGN.md §4f):
//
//   - Zero cost when disabled. Neither the fabric nor the MPI runtime
//     holds the *Recorder: both record through their engine domain's one
//     nil-gated probe (timeline.Probe) — message edges and their stages,
//     and the ranks' blocked segments, senders and analytic collectives'
//     last-arrival edges. With the recorder off the hot paths pay a nil
//     check and allocate nothing.
//   - Exact decomposition. A message edge's component fields (overhead,
//     injection wait, injection, link wait, link transit) are accumulated
//     stage by stage by the probe on the fabric's delivery path so they sum
//     exactly to the edge's arrive − depart span, even under cut-through
//     pipelining where the stages overlap in time.
//   - Sum-to-makespan. The backward walk's clock decreases strictly from
//     the makespan to zero and every span is attributed to exactly one
//     category, so the report's attribution sums to the end-to-end runtime
//     up to float addition error (well under the 1e-9 s acceptance bound).
//   - Bounded memory, never silent. Zero-length waits are skipped,
//     adjacent edgeless waits of the same op class coalesce, and a
//     configurable record cap drops further records while counting them in
//     Dropped, which every export prints.
//   - Deterministic exports. Reports hold no maps; slices are built in
//     fixed orders with deterministic tie-breaks, so running the same
//     experiment twice yields byte-identical JSON.
package critpath

import "strconv"

// SchemaVersion identifies the critical-path report layout (JSON); bump
// on incompatible changes. EXPERIMENTS.md documents the schema.
const SchemaVersion = 1

// DefaultCap bounds the total record count (waits + edges + per-hop wait
// entries) when the caller does not choose one. At roughly 50 bytes per
// record this caps recorder memory near 50 MB; the proxy apps at the
// experiment scales stay two orders of magnitude below it.
const DefaultCap = 1 << 20

// Kind says how a blocked segment ended, which tells the analyzer how to
// attribute the span and where to jump next.
type Kind uint8

const (
	// KindRecv is a blocked receive ended by a message delivery; the wait's
	// edge (when recorded) is the message edge back to the sender.
	KindRecv Kind = iota
	// KindSend is a blocked send (Wait on an Isend before local injection
	// completed); the wait's edge describes the sender-side injection.
	KindSend
	// KindColl is a blocked analytic collective; the wait's edge is the
	// last-arrival dependency on the rank that completed the group.
	KindColl
	// KindIO is a blocked file-system operation (checkpoint flush, drain,
	// metadata storm): edgeless, attributed in place to the io_wait
	// category. Not counted as slack — the rank is held by storage, not by
	// another rank.
	KindIO
)

// EdgeKind distinguishes the two happens-before edge shapes.
type EdgeKind uint8

const (
	// EdgeMessage is a point-to-point delivery through the fabric.
	EdgeMessage EdgeKind = iota
	// EdgeCollective is an analytic collective's last-arrival dependency.
	EdgeCollective
)

// Edge is one cross-rank happens-before dependency. For message edges the
// five component fields are accumulated by the fabric's delivery stages
// and sum exactly to arrive − Depart; collective edges carry only the
// source (last-arriving) rank and its arrival time.
type Edge struct {
	Kind    EdgeKind
	SrcRank int32   // sending / last-arriving rank
	Hops    int32   // route length (0 for same-node and collective edges)
	Bytes   int64   // payload bytes (0 for collective edges)
	Depart  float64 // when the source caused the edge (send call / last arrival)

	// Component decomposition of a message edge's arrive − Depart span.
	Overhead float64 // software send/recv overheads, rendezvous RTT, VN mediation
	InjWait  float64 // queue wait behind NIC injection ports and VN proxies
	Inject   float64 // NIC serialisation and same-node memcpy time
	LinkWait float64 // queue wait behind links (incl. flat-switch ejection)
	Transit  float64 // wire time: per-hop latency + cut-through pipeline fill

	hopOff int32 // first entry in the recorder's hop-wait arena
	hopLen int32 // number of per-hop wait entries
}

// HopWait is one link's queue-wait contribution to a message edge. Only
// hops with a positive wait are recorded.
type HopWait struct {
	Link int32
	Wait float64
}

// Wait is one blocked segment of one rank: [Start, End) spent inside the
// MPI operation Class (an mpi.OpClass value; this package stores it as an
// int to stay a leaf). Edge is 1+index of the happens-before edge that
// ended the block, or 0 when none was recorded (recorder cap reached, or a
// purely local completion).
type Wait struct {
	Start float64
	End   float64
	Edge  int32
	Class int16
	Kind  Kind
}

// Recorder collects the causal run record. It is single-writer by
// construction: the simulator executes events one at a time, so the
// recording methods need no synchronisation. All methods are safe to call
// on a nil receiver guardless because instrumented packages nil-gate the
// pointer themselves (the telemetry idiom).
type Recorder struct {
	waits      [][]Wait  // per rank, time-ordered by construction
	finish     []float64 // per rank: simulated time the rank's body returned
	edges      []Edge
	hops       []HopWait
	classNames []string

	limit  int // cap on stored records (len edges + hops + Σ waits)
	stored int

	// Dropped counts records refused once the cap was reached. Exports
	// print it; a nonzero value means the path attribution may route
	// through edgeless waits where edges were dropped.
	Dropped uint64
}

// NewRecorder sizes a recorder for the given rank count. cap bounds the
// total stored record count (waits + edges + per-hop waits); cap <= 0
// selects DefaultCap.
func NewRecorder(ranks, cap int) *Recorder {
	if cap <= 0 {
		cap = DefaultCap
	}
	return &Recorder{
		waits:  make([][]Wait, ranks),
		finish: make([]float64, ranks),
		limit:  cap,
	}
}

// SetClassNames installs the op-class name table used by reports; index i
// labels waits recorded with Class == i. The MPI runtime attaches its
// OpClass names here so this package never imports mpi.
func (r *Recorder) SetClassNames(names []string) { r.classNames = names }

// SetFinish records the simulated time at which a rank's body returned;
// the analyzer starts its backward walk at the latest-finishing rank and
// counts trailing idle toward the other ranks' slack.
func (r *Recorder) SetFinish(rank int, t float64) { r.finish[rank] = t }

// StartEdge allocates a happens-before edge and returns its id (1+index)
// and a pointer for the caller to fill in. At the record cap it counts a
// drop and returns (0, nil); callers must tolerate both. The pointer is
// only valid until the next StartEdge call.
func (r *Recorder) StartEdge(kind EdgeKind, depart float64, bytes int64, hops int) (int32, *Edge) {
	if r.stored >= r.limit {
		r.Dropped++
		return 0, nil
	}
	r.stored++
	r.edges = append(r.edges, Edge{
		Kind:   kind,
		Depart: depart,
		Bytes:  bytes,
		Hops:   int32(hops),
		hopOff: int32(len(r.hops)),
	})
	return int32(len(r.edges)), &r.edges[len(r.edges)-1]
}

// Edge returns the edge with the given id (from StartEdge). id must be a
// valid id; 0 is never valid.
func (r *Recorder) Edge(id int32) *Edge { return &r.edges[id-1] }

// AddHopWait appends one link's positive queue wait to the edge most
// recently returned by StartEdge. The delivery path computes one message's
// whole route without yielding, so the per-edge hop entries stay
// contiguous in the shared arena.
func (r *Recorder) AddHopWait(id int32, link int32, wait float64) {
	if id == 0 {
		return
	}
	if r.stored >= r.limit {
		r.Dropped++
		return
	}
	r.stored++
	r.hops = append(r.hops, HopWait{Link: link, Wait: wait})
	r.edges[id-1].hopLen++
}

// AddWait records one blocked segment for rank. Zero-length segments are
// skipped (a completion that was already available cannot bound the
// runtime through this block), and an edgeless segment extends the
// previous one when they abut and share class and kind — the coalescing
// that keeps tight Wait loops from growing the record linearly.
func (r *Recorder) AddWait(rank int, start, end float64, class int, kind Kind, edge int32) {
	if end <= start {
		return
	}
	ws := r.waits[rank]
	if edge == 0 && len(ws) > 0 {
		if p := &ws[len(ws)-1]; p.Edge == 0 && p.Kind == kind && p.Class == int16(class) && p.End == start {
			p.End = end
			return
		}
	}
	if r.stored >= r.limit {
		r.Dropped++
		return
	}
	r.stored++
	r.waits[rank] = append(ws, Wait{Start: start, End: end, Edge: edge, Class: int16(class), Kind: kind})
}

// WaitsRecorded reports the stored wait count across all ranks.
func (r *Recorder) WaitsRecorded() int {
	n := 0
	for _, ws := range r.waits {
		n += len(ws)
	}
	return n
}

// className labels an op class for reports.
func (r *Recorder) className(class int16) string {
	if int(class) < len(r.classNames) {
		return r.classNames[class]
	}
	return "class " + strconv.Itoa(int(class))
}
