package sim

// Conservative parallel scheduler: a ShardedEngine drives several domain
// Engines, one worker goroutine each, under CMB-style conservative time
// windows.
//
// The caller partitions the simulated system into domains (the network
// layer shards the torus into slabs — see internal/torus.Partition) and
// arranges that every *synchronous* interaction between simulation objects
// stays inside one domain. The only cross-domain mechanism is Engine.Post:
// an event handed to the coordinator, delivered into the target domain at a
// window boundary.
//
// Correctness rests on one invariant, the lookahead rule: any event a
// domain posts to another domain must be timestamped at least `lookahead`
// after the event that created it. The caller derives lookahead from the
// minimum latency of any cross-domain causal channel (for the torus fabric:
// min(per-hop link latency, NIC receive overhead) — every cross-slab
// message crosses at least one link hop and lands behind a receive
// overhead). Under that rule, running each domain independently over the
// window [W, W+L) cannot miss a cross-domain event: anything a foreign
// domain could send into the window was posted from an event before W, and
// those were all delivered at an earlier barrier.
//
// Determinism: posts are merged at each barrier in (time, key, from-domain,
// emission-sequence) order before being fed to the target engine, so the
// target's (time, seq) event order — and therefore the entire run — is a
// pure function of the simulation's inputs, never of goroutine timing.
// TestShardedMergeDeterministic and mpi's TestParallelRunTwiceDeterministic
// enforce this.
//
// Windows actually advance in steps of lookahead/2, not lookahead. The
// half margin makes the window check immune to floating-point rounding: a
// post computed as t+δ with δ ≥ L and t inside the window exceeds the
// horizon W+L/2 by nearly L/2 — six orders of magnitude above one ulp at
// simulation timescales — so no representability argument about W+L is
// needed. The window start is the global minimum pending-event time, so
// idle stretches are skipped regardless of window length.

import (
	"fmt"
	"sort"
	"time"
)

// post is one cross-domain event in flight between two window barriers.
type post struct {
	at   Time
	key  uint64 // caller-chosen stable tiebreak (the fabric uses source node id)
	from int32
	seq  uint64 // per-source-domain emission counter
	arr  Arriver
}

// DomainStats describes one domain's share of a sharded run. All fields
// except BarrierStallSeconds are deterministic (identical across repeated
// runs of the same simulation); BarrierStallSeconds is wall-clock time the
// domain's worker spent waiting at window barriers and varies run to run.
type DomainStats struct {
	Domain   int
	Windows  uint64 // windows in which this domain executed
	Events   uint64 // events executed by this domain's engine
	PostsOut uint64 // cross-domain events this domain emitted
	PostsIn  uint64 // cross-domain events delivered to this domain

	BarrierStallSeconds float64 // wall clock, nondeterministic
}

// shardReply is a worker's answer to one window request.
type shardReply struct {
	next     Time // earliest pending event after the window, or Infinity
	stallNS  int64
	panicked any
}

// ShardedEngine coordinates a set of domain engines. Construct with
// NewSharded, seed each domain via Engine(i).Spawn / At, then call Run
// once. The zero value is not usable.
type ShardedEngine struct {
	engs      []*Engine
	lookahead Time

	// out[from*D+to] is the outbox from domain `from` to domain `to`.
	// Row block `from*D .. from*D+D` is written only by worker `from`
	// while it runs and read only by the coordinator at the barrier, so
	// the channel handoff orders every access.
	out     [][]post
	postSeq []uint64

	req []chan Time
	rep []chan shardReply

	stats []DomainStats
	merge []post // coordinator's merge scratch, reused across barriers
	ran   bool
}

// NewSharded returns a coordinator over `domains` fresh engines with the
// given lookahead (simulated seconds; must be positive and finite).
func NewSharded(domains int, lookahead Time) *ShardedEngine {
	if domains < 1 {
		panic(fmt.Sprintf("sim: NewSharded needs at least 1 domain, got %d", domains))
	}
	if !(lookahead > 0) || lookahead >= Infinity {
		panic(fmt.Sprintf("sim: NewSharded lookahead must be positive and finite, got %.9g", lookahead))
	}
	s := &ShardedEngine{
		lookahead: lookahead,
		engs:      make([]*Engine, domains),
		out:       make([][]post, domains*domains),
		postSeq:   make([]uint64, domains),
		stats:     make([]DomainStats, domains),
	}
	for i := range s.engs {
		e := NewEngine()
		e.shard = s
		e.shardIdx = i
		s.engs[i] = e
		s.stats[i].Domain = i
	}
	return s
}

// NumDomains reports the number of domain engines.
func (s *ShardedEngine) NumDomains() int { return len(s.engs) }

// Engine returns domain i's engine, for seeding processes and events.
func (s *ShardedEngine) Engine(i int) *Engine { return s.engs[i] }

// Lookahead reports the configured lookahead in simulated seconds.
func (s *ShardedEngine) Lookahead() Time { return s.lookahead }

// Domain reports which domain this engine is within its sharded
// coordinator (0 for a serial engine).
func (e *Engine) Domain() int { return e.shardIdx }

// Sharded reports whether this engine is a domain of a ShardedEngine.
func (e *Engine) Sharded() bool { return e.shard != nil }

// Post schedules a.Arrive(at) on domain `to`. It must be called from code
// executing on a sharded domain engine (events or processes of that
// domain). Posting to the engine's own domain degenerates to AtArrive;
// a genuine cross-domain post must honour the lookahead rule — at least
// `lookahead` after the emitting event — which the engine enforces by
// checking `at` against the current window horizon.
//
// key is a stable tiebreak: posts for one target are delivered in
// (at, key, from-domain, emission order) so that equal-time arrivals from
// different domains interleave identically on every run.
func (e *Engine) Post(to int, at Time, key uint64, a Arriver) {
	s := e.shard
	if s == nil {
		panic("sim: Post called on an engine that is not part of a ShardedEngine")
	}
	if to == e.shardIdx {
		e.AtArrive(at, a)
		return
	}
	if !(at >= e.horizon) {
		panic(fmt.Sprintf(
			"sim: cross-domain post %d→%d at %.9g violates the lookahead rule (window horizon %.9g, lookahead %.9g)",
			e.shardIdx, to, at, e.horizon, s.lookahead))
	}
	if to < 0 || to >= len(s.engs) {
		panic(fmt.Sprintf("sim: post to unknown domain %d of %d", to, len(s.engs)))
	}
	row := e.shardIdx*len(s.engs) + to
	s.postSeq[e.shardIdx]++
	s.out[row] = append(s.out[row], post{
		at: at, key: key, from: int32(e.shardIdx), seq: s.postSeq[e.shardIdx], arr: a,
	})
}

// worker serves window requests for domain i until the request channel
// closes. Panics inside the simulation are caught and surfaced to the
// coordinator, which re-panics on the caller's goroutine.
func (s *ShardedEngine) worker(i int) {
	e := s.engs[i]
	var stall int64
	for {
		t0 := time.Now()
		h, ok := <-s.req[i]
		if !ok {
			return
		}
		stall += time.Since(t0).Nanoseconds()
		rep := shardReply{stallNS: stall}
		func() {
			defer func() { rep.panicked = recover() }()
			e.runUntil(h)
		}()
		rep.next = e.nextEventAt()
		s.rep[i] <- rep
	}
}

// Run executes the whole sharded simulation and returns the final
// simulated time (the maximum over domains). Like Engine.Run it panics if
// processes remain blocked once every queue drains, aggregating the parked
// processes of all domains into the diagnostic.
func (s *ShardedEngine) Run() Time {
	if s.ran {
		panic("sim: ShardedEngine.Run called twice")
	}
	s.ran = true
	d := len(s.engs)

	startCount := make([]uint64, d)
	for i, e := range s.engs {
		startCount[i] = e.EventsExecuted
	}
	defer func() {
		for i, e := range s.engs {
			delta := e.EventsExecuted - startCount[i]
			totalEvents.Add(delta)
			s.stats[i].Events = delta
		}
	}()

	s.req = make([]chan Time, d)
	s.rep = make([]chan shardReply, d)
	for i := range s.engs {
		s.req[i] = make(chan Time, 1)
		s.rep[i] = make(chan shardReply, 1)
		go s.worker(i)
	}
	defer func() {
		for i := range s.req {
			close(s.req[i])
		}
	}()

	next := make([]Time, d)
	for i, e := range s.engs {
		next[i] = e.nextEventAt()
	}
	dispatched := make([]bool, d)

	for {
		w := Infinity
		for _, n := range next {
			if n < w {
				w = n
			}
		}
		if w >= Infinity {
			break
		}
		totalWindows.Add(1)
		h := w + s.lookahead/2
		for i := range s.engs {
			dispatched[i] = next[i] < h
			if dispatched[i] {
				s.stats[i].Windows++
				s.req[i] <- h
			}
		}
		var panicked any
		for i := range s.engs {
			if !dispatched[i] {
				continue
			}
			r := <-s.rep[i]
			next[i] = r.next
			s.stats[i].BarrierStallSeconds = float64(r.stallNS) / 1e9
			if r.panicked != nil && panicked == nil {
				panicked = r.panicked
			}
		}
		if panicked != nil {
			panic(panicked)
		}
		s.exchange(next)
	}

	blocked := 0
	names := make([]string, 0, 9)
	for _, e := range s.engs {
		blocked += e.blocked
		for p := e.parkedHead; p != nil; p = p.nextParked {
			if len(names) < 8 {
				names = append(names, p.name)
			}
		}
	}
	if blocked > 0 {
		sort.Strings(names)
		if blocked > len(names) {
			names = append(names, "...")
		}
		panic(fmt.Sprintf("sim: deadlock: %d process(es) blocked across %d domains with no pending events (e.g. %v)",
			blocked, d, names))
	}

	var end Time
	for _, e := range s.engs {
		if e.now > end {
			end = e.now
		}
	}
	return end
}

// exchange drains every outbox at a window barrier, delivering posts into
// their target engines in deterministic (at, key, from, seq) order and
// tightening next[to] so the coordinator sees newly delivered work.
func (s *ShardedEngine) exchange(next []Time) {
	d := len(s.engs)
	for to := 0; to < d; to++ {
		m := s.merge[:0]
		for from := 0; from < d; from++ {
			row := from*d + to
			if len(s.out[row]) == 0 {
				continue
			}
			s.stats[from].PostsOut += uint64(len(s.out[row]))
			m = append(m, s.out[row]...)
			rs := s.out[row]
			for k := range rs {
				rs[k] = post{} // no stale Arriver refs in the reused row
			}
			s.out[row] = rs[:0]
		}
		s.merge = m
		if len(m) == 0 {
			continue
		}
		sort.Slice(m, func(a, b int) bool {
			pa, pb := &m[a], &m[b]
			if pa.at != pb.at {
				return pa.at < pb.at
			}
			if pa.key != pb.key {
				return pa.key < pb.key
			}
			if pa.from != pb.from {
				return pa.from < pb.from
			}
			return pa.seq < pb.seq
		})
		eng := s.engs[to]
		for i := range m {
			eng.AtArrive(m[i].at, m[i].arr)
			if m[i].at < next[to] {
				next[to] = m[i].at
			}
			m[i] = post{}
		}
		s.stats[to].PostsIn += uint64(len(m))
	}
}

// Stats returns per-domain window statistics for the completed run. The
// slice is a copy; see DomainStats for which fields are deterministic.
func (s *ShardedEngine) Stats() []DomainStats {
	out := make([]DomainStats, len(s.stats))
	copy(out, s.stats)
	return out
}
