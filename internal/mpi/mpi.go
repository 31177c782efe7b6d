// Package mpi implements a simulated message-passing runtime over the
// modelled SeaStar fabric: point-to-point operations with eager/rendezvous
// semantics inherited from the network layer, nonblocking requests, and
// collectives implemented as real algorithms (dissemination barrier,
// binomial trees, recursive doubling, pairwise exchange) whose costs emerge
// from the network model exactly as they do on hardware.
//
// Collectives optionally carry real float64 payloads so the algorithms can
// be tested for correctness (an Allreduce really sums), not only for cost.
//
// For very large task counts the runtime can switch collectives to an
// analytic closed-form cost model (validated against the algorithmic
// implementation at small scale by tests); this keeps 22,000-task POP runs
// tractable — the paper's Figure 18 scale — without changing p2p modelling.
package mpi

import (
	"cmp"
	"fmt"
	"math"
	"slices"

	"xtsim/internal/core"
	"xtsim/internal/critpath"
	"xtsim/internal/machine"
	"xtsim/internal/network"
	"xtsim/internal/sim"
)

// CollectiveMode selects how collectives are executed.
type CollectiveMode int

const (
	// Auto uses algorithmic collectives up to AnalyticThreshold tasks and
	// the analytic model beyond.
	Auto CollectiveMode = iota
	// Algorithmic always runs the real message-by-message algorithms.
	Algorithmic
	// Analytic always uses the closed-form cost model.
	Analytic
)

// AnalyticThreshold is the communicator size above which Auto mode switches
// to analytic collectives.
const AnalyticThreshold = 384

// Op is a reduction operator.
type Op int

// Reduction operators for Reduce/Allreduce.
const (
	Sum Op = iota
	Max
	Min
)

func (o Op) combine(dst, src []float64) {
	switch o {
	case Sum:
		for i := range dst {
			dst[i] += src[i]
		}
	case Max:
		for i := range dst {
			if src[i] > dst[i] {
				dst[i] = src[i]
			}
		}
	case Min:
		for i := range dst {
			if src[i] < dst[i] {
				dst[i] = src[i]
			}
		}
	default:
		panic(fmt.Sprintf("mpi: unknown op %d", int(o)))
	}
}

// Envelope is a received message.
type Envelope struct {
	Src   int // sender's rank within the communicator
	Tag   int
	Bytes int64
	Data  []float64 // nil for size-only messages

	// cause is the critical-path edge id of the delivery that carried this
	// envelope (0 when recording is off): the receiver's blocked segment
	// ends with this happens-before edge.
	cause int32
}

// World is the runtime shared by all tasks of one system run.
type World struct {
	sys      *core.System
	comms    int // comm id allocator
	CollMode CollectiveMode

	// pools holds one recycling pool per scheduling domain (a single entry
	// in serial mode): flights and payload slabs stay domain-private so the
	// sharded scheduler's workers never contend (see pool.go and DESIGN.md
	// §4d/§4h). Each also holds its domain's observer probe, the runtime's
	// only observer state.
	pools []wpool

	// sess prices a hybrid world's sends, nil for DES worlds; horizon is the
	// latest arrival time a send booked (see hybrid.go).
	sess    *network.HybridSession
	horizon sim.Time
}

// NewWorld creates the runtime for sys, planning its engine if no earlier
// call did (core.System.Plan). Each domain pool takes the probe the plan
// installed in that domain's fabric ledger, readied for this world (a
// fresh telemetry collector, the OpClass names): every rank records
// through it. On the hybrid fast path the world opens the session that
// prices its sends.
func NewWorld(sys *core.System) *World {
	sys.Plan(false)
	w := &World{sys: sys, pools: make([]wpool, sys.NumDomains())}
	for i := range w.pools {
		if pr := sys.Fabric.Probe(i); pr != nil {
			pr.World(opNames())
			w.pools[i].probe = pr
		}
	}
	if tier := sys.HybridTier(); tier != core.HybridOff {
		w.sess = sys.Fabric.BeginHybrid(tier == core.HybridExact)
	}
	return w
}

// Comm is a communicator: an ordered group of tasks with its own rank
// numbering, isolated tag space, and collective-synchronisation state.
type Comm struct {
	w     *World
	id    int
	group []int       // global task ids, indexed by local rank
	index map[int]int // global task id -> local rank; nil for identity groups

	members []*P // local-rank-indexed views, for shared-state coordination

	// meets holds the communicator's shared-state collectives, indexed by
	// collective sequence number.
	meets []*meet
}

// P is one task's view of a communicator: the object application code
// calls MPI-style operations on.
type P struct {
	c       *Comm
	me      int // local rank
	task    *core.Rank
	collSeq int
	opDepth int
	// curClass is the top-level operation currently open (valid while
	// opDepth > 0); telemetry attributes injected messages to it, so the
	// p2p traffic inside an algorithmic collective counts as the
	// collective, matching the Profile attribution rules.
	curClass OpClass
	prof     Profile

	// pend is the rank's pending list on this communicator, in arrival
	// order (see matching.go). A receive that finds no match parks on
	// recvReady, waiting for the message from wantSrc with wantTag.
	pend             []pending
	recvReady        sim.Condition
	wantSrc, wantTag int

	// pool is the recycling pool + send counters of the scheduling domain
	// this rank's node lives in (the world's only pool in serial mode).
	pool *wpool

	// curIter is the application-declared iteration label (SetIter),
	// stamped onto timeline phase spans; meaningless while the flight
	// recorder is off.
	curIter int32

	// Hot-path pools and scratch (see pool.go and DESIGN.md §4d).
	freeReqs    *Request   // recycled requests, sends and receives
	reqScratch  []*Request // reused request list for fan-out collectives
	sizeScratch []int64    // reused per-rank size vector for Alltoall
}

// Run spawns body on every task of sys with a world communicator and runs
// the simulation, returning the makespan in seconds.
func Run(sys *core.System, mode CollectiveMode, body func(p *P)) sim.Time {
	// Analytic collectives coordinate every rank through one shared meet
	// point, engine-global state the sharded scheduler cannot host: when
	// this run will use them — Analytic mode, or Auto past the threshold —
	// the engine plan says so (DESIGN.md §4l).
	sys.Plan(mode == Analytic || (mode == Auto && sys.NumTasks > AnalyticThreshold))
	end, ok := run(sys, mode, body)
	if !ok { // an exact-tier hybrid run aborted; the DES runs it instead
		end, _ = run(sys, mode, body)
	}
	return end
}

// run executes body once on every rank of sys, on the runtime its engine
// plan chose, and returns the makespan. ok=false means an exact-tier
// hybrid run aborted (DESIGN.md §4i): sys is back on the DES with its
// fabric untouched (the session ledger is private and counters commit
// only on success), so the caller re-runs the body there. Any other
// panic reaches the caller, as the DES raises a process panic.
func run(sys *core.System, mode CollectiveMode, body func(p *P)) (end sim.Time, ok bool) {
	w := NewWorld(sys)
	w.CollMode = mode
	comm := w.newComm(identity(sys.NumTasks))
	if w.sess != nil {
		defer func() {
			if violated, why := w.sess.Violated(); violated {
				recover() // the hybAbort that unwound the run
				sys.AbortHybrid(why)
				end, ok = 0, false
			}
		}()
	}
	end = sys.Run(func(r *core.Rank) {
		body(comm.view(r))
	})
	if w.sess != nil {
		// The DES makespan is the last event's time, which includes the
		// arrivals of messages delivered but never consumed.
		end = max(end, w.horizon)
		w.sess.Commit()
	}
	return end, true
}

func identity(n int) []int {
	g := make([]int, n)
	for i := range g {
		g[i] = i
	}
	return g
}

func (w *World) newComm(group []int) *Comm {
	w.comms++
	c := &Comm{w: w, id: w.comms, group: group}
	for i := range w.pools {
		if pr := w.pools[i].probe; pr != nil {
			pr.Comm(c.id, len(group))
		}
	}
	// The world communicator's group is the identity permutation, so the
	// reverse map would just repeat the index; leaving it nil saves tens of
	// bytes per rank at paper scale (view falls back to rank == id).
	identityGroup := true
	for lr, g := range group {
		if g != lr {
			identityGroup = false
			break
		}
	}
	if !identityGroup {
		c.index = make(map[int]int, len(group))
	}
	// One backing slab for all member views: at 23k ranks, per-object
	// allocation rounding on the P struct alone is measurable.
	ps := make([]P, len(group))
	c.members = make([]*P, len(group))
	for lr, g := range group {
		node, _ := w.sys.Place(g)
		ps[lr] = P{c: c, me: lr, pool: &w.pools[w.sys.DomainOf(node)]}
		c.members[lr] = &ps[lr]
		if c.index != nil {
			c.index[g] = lr
		}
	}
	return c
}

// view attaches the task context lazily (the core.Rank exists only once the
// process is spawned) and returns the task's rank-local view.
func (c *Comm) view(task *core.Rank) *P {
	var lr int
	var ok bool
	if c.index == nil { // identity group: local rank == global task id
		lr, ok = task.ID, task.ID >= 0 && task.ID < len(c.group)
	} else {
		lr, ok = c.index[task.ID]
	}
	if !ok {
		panic(fmt.Sprintf("mpi: task %d not in communicator", task.ID))
	}
	p := c.members[lr]
	p.task = task
	return p
}

// Rank returns the calling task's rank within the communicator.
func (p *P) Rank() int { return p.me }

// Size returns the number of tasks in the communicator.
func (p *P) Size() int { return len(p.c.group) }

// Task exposes the underlying compute context for Compute calls.
func (p *P) Task() *core.Rank { return p.task }

// Now reports simulated time.
func (p *P) Now() sim.Time { return p.task.Now() }

// Compute is a convenience forwarding to the core cost model.
func (p *P) Compute(w core.Work) { p.task.Compute(w) }

// global maps a local rank to its global task id.
func (p *P) global(rank int) int {
	if rank < 0 || rank >= len(p.c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", rank, len(p.c.group)))
	}
	return p.c.group[rank]
}

// msg builds the network message descriptor for a transfer to dst.
func (p *P) msg(dstTask int, bytes int64) network.Msg {
	sys := p.c.w.sys
	sn, sc := sys.Place(p.task.ID)
	dn, dc := sys.Place(dstTask)
	return network.Msg{
		SrcNode: sn, SrcCore: sc,
		DstNode: dn, DstCore: dc,
		Bytes: bytes, Mode: sys.Mode,
	}
}

// Send transmits bytes to dst with the given tag and blocks until the
// payload has left the local node (eager buffering semantics).
func (p *P) Send(dst, tag int, bytes int64) {
	p.sendData(dst, tag, bytes, nil)
}

// SendData transmits a real float64 payload.
func (p *P) SendData(dst, tag int, data []float64) {
	p.sendData(dst, tag, int64(8*len(data)), data)
}

func (p *P) sendData(dst, tag int, bytes int64, data []float64) {
	start := p.opBegin(OpSend)
	defer p.opEnd(OpSend, start)
	p.wait1(p.isendData(dst, tag, bytes, data))
}

// Isend starts a nonblocking send; the returned request completes when the
// payload has left the node.
func (p *P) Isend(dst, tag int, bytes int64) *Request {
	return p.isendData(dst, tag, bytes, nil)
}

// IsendData starts a nonblocking send with a payload.
func (p *P) IsendData(dst, tag int, data []float64) *Request {
	return p.isendData(dst, tag, int64(8*len(data)), data)
}

func (p *P) isendData(dst, tag int, bytes int64, data []float64) *Request {
	if p.c.w.sess != nil {
		return p.hybIsend(dst, tag, bytes, data)
	}
	dstTask := p.global(dst)
	// Copy the payload: eager-protocol buffering means the sender may
	// freely mutate its buffer after the send is issued. The copy lives in
	// a pooled slab reclaimed when the receiver combines-and-drops it.
	env := Envelope{Src: p.me, Tag: tag, Bytes: bytes, Data: p.clonePayload(data)}

	fl := p.newFlight(p.c.members[dst], env)
	tl := p.c.w.sys.Fabric.Deliver(p.task.Now(), p.msg(dstTask, bytes), fl)

	req := p.newReq()
	if pr := p.pool.probe; pr != nil {
		cls := OpSend // a bare Isend outside any tracked region
		if p.opDepth > 0 {
			cls = p.curClass
		}
		// The delivery's happens-before edge goes into the in-flight
		// envelope (the receiver's wait will end with it) and the send
		// request (a blocked Wait decomposes into injection queueing +
		// serialisation). Mutating fl after Deliver is safe: its arrival
		// event fires later.
		eid := pr.Sent(p.task.ID, p.c.id, int(cls), tl.Depart, bytes)
		fl.env.cause = eid
		req.edge = eid
	}
	// The injection-complete event belongs to the sender's node, so it is
	// scheduled on the engine running this rank (the node's domain engine
	// under the sharded scheduler, the system engine otherwise).
	p.task.Proc.Engine().AtArrive(tl.Injected, req)
	return req
}

// Recv blocks until a message with the given source rank and tag arrives
// and returns it. Matching is exact on (source, tag); messages from one
// (source, tag) pair are delivered in order.
func (p *P) Recv(src, tag int) Envelope {
	start := p.opBegin(OpRecv)
	defer p.opEnd(OpRecv, start)
	if src < 0 || src >= len(p.c.group) {
		panic(fmt.Sprintf("mpi: rank %d out of range [0,%d)", src, len(p.c.group)))
	}
	if pr := p.pool.probe; pr != nil {
		// Every blocking receive in the runtime funnels through here
		// (including the algorithmic collectives' internal p2p), so this
		// one site records all message-ended waits. curClass is the
		// enclosing top-level op, matching the Profile attribution rules.
		t0 := p.task.Now()
		env := p.match(src, tag)
		pr.Blocked(p.task.ID, t0, p.task.Now(), int(p.curClass), critpath.KindRecv, env.cause)
		return env
	}
	return p.match(src, tag)
}

// Irecv returns a request whose Wait performs the receive; Envelope returns
// the message afterwards, for as long as Request says. The request comes
// from the rank's free list, so a steady exchange allocates none.
func (p *P) Irecv(src, tag int) *Request {
	r := p.newReq()
	r.owner, r.src, r.tag = p, src, tag
	return r
}

// SendRecv exchanges messages with potentially different partners, the
// common halo-exchange primitive.
func (p *P) SendRecv(dst, sendTag int, sendBytes int64, src, recvTag int) Envelope {
	sreq := p.Isend(dst, sendTag, sendBytes)
	env := p.Recv(src, recvTag)
	p.wait1(sreq)
	return env
}

// Request tracks a nonblocking operation. Requests are pooled per rank:
// Isend and Irecv pop one from the rank's free list, and Wait pushes every
// completed request, send or receive, back onto the waiting rank's list,
// so do not Wait one request from two places. A receive request performs
// its receive inside Wait. Its Envelope stays readable after Wait until
// the rank starts another request on the communicator it waited through:
// an Isend or Irecv, or a Send, SendRecv or algorithmic collective, which
// start them internally.
type Request struct {
	// done marks a completed send, or a receive that Wait has performed;
	// recycled, a request Wait has already returned to the free list.
	done     bool
	recycled bool
	cond     sim.Condition
	env      Envelope
	owner    *P // the receiving rank's view for receive requests; nil for sends
	src, tag int
	// edge is the critical-path edge id of the send's delivery (0 when
	// recording is off); a Wait blocked on injection attributes its span
	// through the edge's sender-side components.
	edge int32
	next *Request // free-list link
	// ready is the injection-complete time of a hybrid-path send (the DES
	// schedules an engine event instead); Wait advances the rank's clock to
	// it, which is exactly where the DES proc resumes.
	ready sim.Time
}

// Arrive completes a send request when its injection event fires; the
// Request itself is the sim.Arriver, so no per-send closure is needed.
func (r *Request) Arrive(sim.Time) {
	r.done = true
	r.cond.Broadcast()
}

// Envelope returns the received message after Wait on an Irecv request.
func (r *Request) Envelope() Envelope {
	if r.owner == nil {
		panic("mpi: Envelope called on a send request (only Irecv requests carry one)")
	}
	if !r.done {
		panic("mpi: Envelope called before Wait completed the receive")
	}
	return r.env
}

// Wait blocks until every request completes, performing the receive of
// each Irecv request, and returns the requests to the rank's free list.
func (p *P) Wait(reqs ...*Request) {
	start := p.opBegin(OpWait)
	defer p.opEnd(OpWait, start)
	for _, r := range reqs {
		p.waitOne(r)
	}
}

// wait1 is Wait for a single request without the variadic slice.
func (p *P) wait1(r *Request) {
	start := p.opBegin(OpWait)
	defer p.opEnd(OpWait, start)
	p.waitOne(r)
}

func (p *P) waitOne(r *Request) {
	if r.owner != nil {
		if !r.done {
			r.env = r.owner.Recv(r.src, r.tag)
			r.done = true
		}
	} else if clk := p.task.HybClock(); clk != nil {
		// Hybrid sends complete at creation with their injection time
		// attached; the DES would block the proc until the injection event,
		// so resume-at-injection becomes a clock advance (the comparison
		// covers the already-past case where the DES does not move either).
		if r.ready > clk.T {
			clk.T = r.ready
		}
	} else if pr := p.pool.probe; pr != nil && !r.done {
		t0 := p.task.Now()
		for !r.done {
			r.cond.Await(p.task.Proc)
		}
		pr.Blocked(p.task.ID, t0, p.task.Now(), int(p.curClass), critpath.KindSend, r.edge)
	}
	for !r.done {
		r.cond.Await(p.task.Proc)
	}
	if !r.recycled {
		r.recycled = true
		r.next = p.freeReqs
		p.freeReqs = r
	}
}

// ---------- the collective meet ----------

// meet is one shared-state collective on a communicator: every rank
// arrives, the last arrival settles the shared result, and everyone leaves
// at the finish. It carries the analytic collectives' closed-form timing
// and the data that rides on shared state instead of messages (root
// shares, reductions, Scan prefixes, Split's groups). Both runtimes use
// the same meet, and in both a non-last arriver parks on its condition;
// only how a rank's clock reaches the finish depends on the runtime.
type meet struct {
	arrived int
	// maxAt is the latest entry time and maxRank the rank that made it;
	// that rank's cost closure prices the collective.
	maxAt   sim.Time
	maxRank int
	cost    func() float64
	finish  sim.Time

	data  [][]float64   // payload contributions by rank, for the last arrival's fold
	acc   []float64     // the folded payload every rank copies out
	keys  []splitKey    // Split's contributions, in arrival order
	comms map[int]*Comm // Split's new communicators by color

	// edge is a priced meet's last-arrival happens-before edge (0 when
	// critical-path recording is off or the edge was dropped at the cap).
	edge int32

	cond sim.Condition // non-last arrivers park here
}

// meet runs the calling rank's arrival at the next shared-state collective
// on its communicator. MPI semantics require all ranks to invoke
// collectives in the same order, which makes the per-rank collective
// sequence number a safe key. arrive runs as the rank arrives; last runs
// once, at the last arrival, before the waiters are woken.
//
// The latest entry prices the collective with its cost closure; a nil cost
// finishes at the latest entry. On an exact time tie the later arrival
// wins on the DES (procs arrive in time order, so the last arriver holds
// the latest entry) and the higher rank on the hybrid path, where ranks
// arrive in run-queue order, not in simulated-time order. Every rank
// leaves with its clock at the finish; a cost-free meet adds no DES event,
// because the DES ranks resume at the last arrival's time already.
func (p *P) meet(cost func() float64, arrive, last func(m *meet)) *meet {
	c := p.c
	if c.w.sys.ParallelEnabled() {
		// Ranks from different slabs would park on one condition variable —
		// cross-domain shared state the sharded scheduler cannot host. The
		// admission table catches the analytic modes; a workload that
		// reaches this panic (Split, the data-combining paths of
		// AllreduceRing/ReduceScatter) must run serially.
		panic("mpi: shared-state collective coordination under the parallel scheduler; run this workload serially")
	}
	now := p.task.Now()
	clk := p.task.HybClock()
	seq := p.collSeq
	for len(c.meets) <= seq {
		c.meets = append(c.meets, &meet{})
	}
	m := c.meets[seq]
	p.collSeq++
	if arrive != nil {
		arrive(m)
	}
	if m.arrived == 0 || now > m.maxAt || now == m.maxAt && (clk == nil || p.me > m.maxRank) {
		m.maxAt, m.maxRank, m.cost = now, p.me, cost
	}
	m.arrived++
	if m.arrived < len(c.group) {
		m.cond.Await(p.task.Proc)
	} else {
		// Every rank holds m until it leaves; the communicator drops it
		// so a long run does not retain each finished meet's waiters.
		c.meets[seq] = nil
		if last != nil {
			last(m)
		}
		m.finish = m.maxAt
		if m.cost != nil {
			m.finish += m.cost()
		}
		m.cond.Broadcast()
	}
	if clk != nil {
		clk.T = m.finish
	} else if m.cost != nil {
		p.task.Proc.WaitUntil(m.finish)
	}
	return m
}

// analytic performs a collective with a closed-form cost on the meet.
func (p *P) analytic(cost func() float64) {
	pr := p.pool.probe
	if pr == nil {
		p.meet(cost, nil, nil)
		return
	}
	entry := p.task.Now()
	m := p.meet(cost, nil, func(m *meet) {
		// One shared last-arrival edge: every rank's resume depends on
		// the latest entry into the collective.
		m.edge = pr.Collective(m.maxAt, p.c.group[m.maxRank])
	})
	pr.Blocked(p.task.ID, entry, p.task.Now(), int(p.curClass), critpath.KindColl, m.edge)
}

func (p *P) useAnalytic() bool {
	switch p.c.w.CollMode {
	case Algorithmic:
		return false
	case Analytic:
		return true
	default:
		return len(p.c.group) > AnalyticThreshold
	}
}

// netParams bundles the closed-form cost inputs.
func (p *P) netParams() (alpha, invBW float64) {
	sys := p.c.w.sys
	hops := int(sys.Fabric.Tor.AvgHops())
	// In VN mode half the endpoints are far cores on average.
	far := sys.Mode == machine.VN && sys.M.CoresPerNode > 1
	alpha = sys.Fabric.ZeroLatencyEstimate(hops, sys.Mode, false)
	if far {
		alpha = 0.5*alpha + 0.5*sys.Fabric.ZeroLatencyEstimate(hops, sys.Mode, true)
	}
	return alpha, 1 / sys.M.NIC.EffBW()
}

// bisectionBW estimates the machine bisection bandwidth in bytes/s for the
// current system size.
func (p *P) bisectionBW() float64 {
	sys := p.c.w.sys
	tor := sys.Fabric.Tor
	if sys.M.Topology == machine.FlatSwitch {
		return float64(tor.Nodes()) * sys.M.NIC.EffBW() / 2
	}
	// Cut the longest dimension: links crossing = 2 (torus wrap) × 2
	// (directions) × cross-sectional area.
	area := tor.NY * tor.NZ
	if tor.NX < tor.NY && tor.NX*tor.NZ > area {
		area = tor.NX * tor.NZ
	}
	return 4 * float64(area) * sys.M.Link.BW
}

// ---------- collectives ----------

// Barrier blocks until every rank of the communicator has entered it.
// Algorithmic form: dissemination barrier, ceil(log2 P) rounds.
func (p *P) Barrier() {
	start := p.opBegin(OpBarrier)
	defer p.opEnd(OpBarrier, start)
	n := len(p.c.group)
	if n == 1 {
		return
	}
	if p.useAnalytic() {
		alpha, _ := p.netParams()
		rounds := math.Ceil(math.Log2(float64(n)))
		p.analytic(func() float64 { return rounds * alpha })
		return
	}
	for k := 1; k < n; k *= 2 {
		dst := (p.me + k) % n
		src := (p.me - k + n) % n
		sreq := p.Isend(dst, tagBarrier, 0)
		p.Recv(src, tagBarrier)
		p.wait1(sreq)
	}
}

// Internal collective tags (user tags must be non-negative).
const (
	tagBarrier = -1 - iota
	tagBcast
	tagReduce
	tagAllreduce
	tagAlltoall
	tagAllgather
	tagGather
	tagScatter
)

// Bcast sends bytes (and optionally data) from root to every rank using a
// binomial tree; returns the data on every rank.
func (p *P) Bcast(root int, bytes int64, data []float64) []float64 {
	start := p.opBegin(OpBcast)
	defer p.opEnd(OpBcast, start)
	n := len(p.c.group)
	if n == 1 {
		return data
	}
	if p.useAnalytic() {
		alpha, invBW := p.netParams()
		rounds := math.Ceil(math.Log2(float64(n)))
		p.analytic(func() float64 { return rounds * (alpha + float64(bytes)*invBW) })
		return p.shareFromRoot(root, data)
	}
	// Rotate so root is rank 0 in tree coordinates.
	vr := (p.me - root + n) % n
	// Receive from parent (unless root).
	if vr != 0 {
		mask := 1
		for mask < n {
			if vr&mask != 0 {
				parent := ((vr - mask) + root) % n
				env := p.Recv(parent, tagBcast)
				data = env.Data
				break
			}
			mask <<= 1
		}
	}
	// Forward to children.
	mask := 1
	for mask < n {
		if vr&mask != 0 {
			break
		}
		mask <<= 1
	}
	reqs := p.reqScratch[:0]
	for m := mask >> 1; m >= 1; m >>= 1 {
		child := vr | m
		if child < n && child != vr {
			reqs = append(reqs, p.isendData((child+root)%n, tagBcast, bytes, data))
		}
	}
	p.Wait(reqs...)
	p.reqScratch = reqs[:0]
	return data
}

// shareFromRoot distributes root's data through the meet (used by analytic
// collectives, whose cost is already accounted for).
func (p *P) shareFromRoot(root int, data []float64) []float64 {
	m := p.meet(nil, func(m *meet) {
		if p.me == root {
			// Snapshot, not alias: waiters copy m.acc only after they
			// resume, which can be after root has resumed and mutated its
			// own buffer. A private snapshot keeps that mutation invisible.
			m.acc = cloneFloats(data)
		}
	}, nil)
	// Every non-root rank gets its own copy: handing the shared slice to
	// all ranks would alias their results, so mutating one rank's buffer
	// would silently corrupt every other rank's.
	if p.me == root {
		return data
	}
	return cloneFloats(m.acc)
}

// Reduce combines data from all ranks onto root with op, returning the
// result on root (nil elsewhere). Size-only reductions pass nil data and a
// positive bytes count.
func (p *P) Reduce(root int, op Op, bytes int64, data []float64) []float64 {
	start := p.opBegin(OpReduce)
	defer p.opEnd(OpReduce, start)
	n := len(p.c.group)
	if n == 1 {
		return cloneFloats(data)
	}
	if p.useAnalytic() {
		alpha, invBW := p.netParams()
		rounds := math.Ceil(math.Log2(float64(n)))
		p.analytic(func() float64 { return rounds * (alpha + float64(bytes)*invBW) })
		res := p.accumulateShared(op, data)
		if p.me == root {
			return res
		}
		return nil
	}
	// Binomial tree reduction toward virtual rank 0 (= root).
	vr := (p.me - root + n) % n
	acc := cloneFloats(data)
	for mask := 1; mask < n; mask <<= 1 {
		if vr&mask != 0 {
			parent := ((vr &^ mask) + root) % n
			p.sendData(parent, tagReduce, bytes, acc)
			return nil
		}
		child := vr | mask
		if child < n {
			env := p.Recv((child+root)%n, tagReduce)
			if acc != nil && env.Data != nil {
				op.combine(acc, env.Data)
			}
			p.releasePayload(env.Data)
		}
	}
	return acc
}

// accumulateShared combines every rank's contribution through the meet;
// cost must already have been charged by the caller. Contributions fold in
// ascending rank order at the last arrival, so the result does not depend
// on arrival order (every contributor is still parked, its buffer intact).
func (p *P) accumulateShared(op Op, data []float64) []float64 {
	m := p.meet(nil, func(m *meet) { m.put(p.me, len(p.c.group), data) }, func(m *meet) {
		for _, d := range m.data {
			if d == nil {
				continue
			}
			if m.acc == nil {
				m.acc = cloneFloats(d)
			} else {
				op.combine(m.acc, d)
			}
		}
		m.data = nil
	})
	// Every rank copies out — the shared accumulator stays private. The
	// last arriver must not keep m.acc either: it resumes (and may mutate
	// its "own" result) before the woken waiters get to make their copies.
	return cloneFloats(m.acc)
}

// put records rank's payload contribution (of n) for the last arrival's
// fold; a nil payload contributes nothing.
func (m *meet) put(rank, n int, d []float64) {
	if d == nil {
		return
	}
	if m.data == nil {
		m.data = make([][]float64, n)
	}
	m.data[rank] = d
}

// Allreduce combines data across all ranks with op and returns the result
// on every rank. Algorithmic form: recursive doubling with pre/post folding
// for non-power-of-two sizes — the pattern whose latency dominates POP's
// barotropic phase (§6.2).
func (p *P) Allreduce(op Op, bytes int64, data []float64) []float64 {
	start := p.opBegin(OpAllreduce)
	defer p.opEnd(OpAllreduce, start)
	n := len(p.c.group)
	if n == 1 {
		return cloneFloats(data)
	}
	if p.useAnalytic() {
		alpha, invBW := p.netParams()
		rounds := math.Ceil(math.Log2(float64(n)))
		p.analytic(func() float64 { return rounds * (alpha + float64(bytes)*invBW) })
		return p.accumulateShared(op, data)
	}

	acc := cloneFloats(data)
	// Largest power of two ≤ n.
	pow2 := 1
	for pow2*2 <= n {
		pow2 *= 2
	}
	rem := n - pow2

	// Fold: ranks ≥ pow2 send to rank-pow2 partners, which absorb them.
	if p.me >= pow2 {
		p.sendData(p.me-pow2, tagAllreduce, bytes, acc)
	} else {
		if p.me < rem {
			env := p.Recv(p.me+pow2, tagAllreduce)
			if acc != nil && env.Data != nil {
				op.combine(acc, env.Data)
			}
			p.releasePayload(env.Data)
		}
		// Recursive doubling among the pow2 group.
		for mask := 1; mask < pow2; mask <<= 1 {
			partner := p.me ^ mask
			sreq := p.isendData(partner, tagAllreduce, bytes, acc)
			env := p.Recv(partner, tagAllreduce)
			p.wait1(sreq)
			if acc != nil && env.Data != nil {
				op.combine(acc, env.Data)
			}
			p.releasePayload(env.Data)
		}
	}
	// Unfold: partners return the result to the folded ranks.
	if p.me < rem {
		p.sendData(p.me+pow2, tagAllreduce, bytes, acc)
	} else if p.me >= pow2 {
		env := p.Recv(p.me-pow2, tagAllreduce)
		acc = env.Data
	}
	return acc
}

// Alltoall exchanges bytesEach with every other rank (pairwise exchange).
func (p *P) Alltoall(bytesEach int64) {
	n := len(p.c.group)
	if p.useAnalytic() {
		// The uniform case needs no per-rank size vector: the analytic cost
		// depends only on the total, and materialising a 23,016-entry
		// scratch per rank would dominate paper-scale heap. The integer
		// total matches the Alltoallv sum bit-for-bit.
		start := p.opBegin(OpAlltoall)
		defer p.opEnd(OpAlltoall, start)
		if n == 1 {
			return
		}
		p.alltoallAnalytic(bytesEach * int64(n-1))
		return
	}
	if cap(p.sizeScratch) < n {
		p.sizeScratch = make([]int64, n)
	}
	sizes := p.sizeScratch[:n]
	for i := range sizes {
		sizes[i] = bytesEach
	}
	sizes[p.me] = 0
	p.Alltoallv(sizes)
}

// alltoallAnalytic charges the closed-form Alltoallv cost for a rank
// sending total bytes (self excluded): injection, per-pair software
// overhead, and a machine-bisection term. Per-pair software overhead
// pipelines to ~1/4 of the one-way latency in SN mode; in VN mode every
// message serialises through the node's NIC-handling core, so nothing
// pipelines — the mechanism behind the paper's finding that the SN-over-VN
// gap in CAM's physics is mostly its Alltoallv (§6.1).
func (p *P) alltoallAnalytic(total int64) {
	n := len(p.c.group)
	alpha, invBW := p.netParams()
	bis := p.bisectionBW()
	overFactor := 0.25
	sys := p.c.w.sys
	if sys.Mode == machine.VN && sys.M.CoresPerNode > 1 {
		overFactor = 1.0
	}
	p.analytic(func() float64 {
		inj := float64(total) * invBW
		// All ranks inject concurrently; roughly half of the total
		// traffic crosses the machine bisection.
		cross := float64(total) * float64(n) / 2
		bisT := cross / bis
		over := float64(n-1) * (alpha * overFactor)
		t := inj + over
		if bisT > t {
			t = bisT
		}
		return t
	})
}

// Alltoallv sends sendSizes[i] bytes to rank i (entries for self are
// ignored). The algorithmic form is the (rank+i)/(rank-i) pairwise
// schedule; the analytic form charges injection, per-pair overhead, and
// bisection terms. This is the operation behind CAM's physics
// load-balancing and dynamics remaps (§6.1) and the HPCC PTRANS/MPI-FFT
// transposes.
func (p *P) Alltoallv(sendSizes []int64) {
	start := p.opBegin(OpAlltoall)
	defer p.opEnd(OpAlltoall, start)
	n := len(p.c.group)
	if len(sendSizes) != n {
		panic(fmt.Sprintf("mpi: Alltoallv sizes len %d != comm size %d", len(sendSizes), n))
	}
	if n == 1 {
		return
	}
	if p.useAnalytic() {
		var total int64
		for i, s := range sendSizes {
			if i != p.me {
				total += s
			}
		}
		p.alltoallAnalytic(total)
		return
	}
	reqs := p.reqScratch[:0]
	for i := 1; i < n; i++ {
		dst := (p.me + i) % n
		src := (p.me - i + n) % n
		// A zero-size message is still sent to keep the pairwise schedule
		// aligned; the fabric charges only software overheads for it.
		reqs = append(reqs, p.Isend(dst, tagAlltoall, sendSizes[dst]))
		p.Recv(src, tagAlltoall)
	}
	p.Wait(reqs...)
	p.reqScratch = reqs[:0]
}

// Allgather makes bytesEach from every rank available everywhere (ring
// algorithm, bandwidth-optimal).
func (p *P) Allgather(bytesEach int64) {
	start := p.opBegin(OpAllgather)
	defer p.opEnd(OpAllgather, start)
	n := len(p.c.group)
	if n == 1 {
		return
	}
	if p.useAnalytic() {
		alpha, invBW := p.netParams()
		p.analytic(func() float64 {
			return float64(n-1) * (alpha*0.25 + float64(bytesEach)*invBW)
		})
		return
	}
	right := (p.me + 1) % n
	left := (p.me - 1 + n) % n
	for i := 0; i < n-1; i++ {
		sreq := p.Isend(right, tagAllgather, bytesEach)
		p.Recv(left, tagAllgather)
		p.wait1(sreq)
	}
}

// Gather collects bytesEach from every rank at root (direct).
func (p *P) Gather(root int, bytesEach int64) {
	start := p.opBegin(OpGatherScatter)
	defer p.opEnd(OpGatherScatter, start)
	n := len(p.c.group)
	if n == 1 {
		return
	}
	if p.me == root {
		for r := 0; r < n; r++ {
			if r != root {
				p.Recv(r, tagGather)
			}
		}
		return
	}
	p.Send(root, tagGather, bytesEach)
}

// Scatter distributes bytesEach from root to every rank (direct).
func (p *P) Scatter(root int, bytesEach int64) {
	start := p.opBegin(OpGatherScatter)
	defer p.opEnd(OpGatherScatter, start)
	n := len(p.c.group)
	if n == 1 {
		return
	}
	if p.me == root {
		reqs := p.reqScratch[:0]
		for r := 0; r < n; r++ {
			if r != root {
				reqs = append(reqs, p.Isend(r, tagScatter, bytesEach))
			}
		}
		p.Wait(reqs...)
		p.reqScratch = reqs[:0]
		return
	}
	p.Recv(root, tagScatter)
}

// Split partitions the communicator by color, ordering each new group by
// (key, rank), and returns the calling rank's view of its new
// communicator. Like MPI_Comm_split, it is collective.
func (p *P) Split(color, key int) *P {
	m := p.meet(nil, func(m *meet) {
		m.keys = append(m.keys, splitKey{color: color, key: key, rank: p.me})
	}, func(m *meet) {
		// The last arrival builds every subgroup deterministically: ranks
		// ordered by (color, key, rank), communicators created in
		// ascending color.
		slices.SortFunc(m.keys, func(a, b splitKey) int {
			return cmp.Or(cmp.Compare(a.color, b.color), cmp.Compare(a.key, b.key), cmp.Compare(a.rank, b.rank))
		})
		m.comms = make(map[int]*Comm)
		var group []int
		for i, k := range m.keys {
			group = append(group, p.c.group[k.rank])
			if i+1 == len(m.keys) || m.keys[i+1].color != k.color {
				m.comms[k.color] = p.c.w.newComm(group)
				group = nil
			}
		}
		m.keys = nil
	})
	// A cheap synchronisation cost: Split is typically done once at setup.
	return m.comms[color].view(p.task)
}

// splitKey is one rank's Split contribution.
type splitKey struct{ color, key, rank int }

// Dup returns the calling rank's view of a duplicate communicator with a
// fresh tag space.
func (p *P) Dup() *P {
	return p.Split(0, p.me)
}

func cloneFloats(d []float64) []float64 {
	if d == nil {
		return nil
	}
	out := make([]float64, len(d))
	copy(out, d)
	return out
}
