package core

// Hybrid rank execution (DESIGN.md §4i): a run admitted to hybrid mode
// skips discrete-event timing entirely — every rank advances a private
// clock (HybClock) through closed-form pricing of its compute and
// communication, meeting the other ranks only at matching and collective
// points. Run still spawns each rank as a coroutine, on a private engine
// whose clock stays at 0: it is only a deterministic FIFO run queue that
// switches to a rank when a deposit or a collective's last arrival wakes
// it. The tier decides how conservative the pricing is:
//
//   - HybridExact prices every transfer with the same reservation
//     arithmetic the DES fabric uses, tracking link/NIC busy state in a
//     session-private ledger. It is admitted only when the ledger can be
//     proven equivalent to the event-driven schedule (single task per
//     node, and — enforced during the run — at most one rank's traffic
//     per link); the result is bit-identical to the full DES.
//   - HybridAnalytic prices transfers with the uncontended closed form
//     (the same formulas validated by the analytic collective model) and
//     shares node memory bandwidth uniformly between a node's ranks. It
//     admits VN placement and is an approximation, not an equivalence.
//
// The promotion rule is conservative and run-scoped: the moment an exact
// run observes anything its ledger cannot prove (a link touched by two
// ranks), the whole run aborts before any result is produced and re-runs
// under the full DES — "promoted to DES before any timing divergence".
// A system that never calls EnableHybrid bypasses all of this.

// HybridTier selects the hybrid fast-path flavour.
type HybridTier int

const (
	// HybridOff runs the ordinary coroutine-per-rank DES.
	HybridOff HybridTier = iota
	// HybridExact is the bit-identical ledger-priced fast path (SN only).
	HybridExact
	// HybridAnalytic is the closed-form approximate fast path (VN allowed).
	HybridAnalytic
)

func (t HybridTier) String() string {
	switch t {
	case HybridExact:
		return "exact"
	case HybridAnalytic:
		return "analytic"
	default:
		return "off"
	}
}

// HybClock is a hybrid rank's private simulated clock. The MPI hybrid
// runtime advances T through the same floating-point operations the DES
// would perform, in the same order, which is what makes the exact tier
// bit-identical rather than merely close.
type HybClock struct {
	T float64
}

// EnableHybrid requests the hybrid fast path at the given tier (HybridOff
// withdraws a request). It records the request and reports the admission
// table's current verdict (admission.go); the engine is fixed when the
// first mpi.NewWorld/Run or System.Run plans it, and HybridReason explains
// a decline. Call it before that point. An admitted exact run may still
// abort to the DES at run time (AbortHybrid).
func (s *System) EnableHybrid(tier HybridTier) bool {
	s.configure("EnableHybrid")
	s.req = s.req&^hybrid | engines(tier)&hybrid
	return s.HybridEnabled()
}

// AbortHybrid is the one engine transition after planning: an exact run
// whose ledger observed something it cannot prove drops to the DES, and
// mpi.Run re-executes it there on the untouched fabric. The abort is
// counted in the fallback ledger and surfaced by HybridReason.
func (s *System) AbortHybrid(reason string) {
	if s.hybTier != HybridExact {
		panic("core: AbortHybrid without a planned exact hybrid run")
	}
	s.hybTier = HybridOff
	s.hybReason = reason
	recordFallback("hybrid", reason)
}

// HybridEnabled reports whether mpi.Run attempts the hybrid fast path.
func (s *System) HybridEnabled() bool { return s.HybridTier() != HybridOff }

// HybridTier reports the hybrid tier the system runs at (HybridOff on the
// DES): the planned tier once planned, the table's current verdict on the
// request before.
func (s *System) HybridTier() HybridTier {
	if s.planned {
		return s.hybTier
	}
	if e := s.req & hybrid; e != 0 && s.declined(e) == "" {
		return HybridTier(e)
	}
	return HybridOff
}

// HybridReason explains why an EnableHybrid request declines, or why an
// exact run aborted to the DES; empty when hybrid engaged or was never
// requested.
func (s *System) HybridReason() string {
	if e := s.req & hybrid; !s.planned && e != 0 {
		return s.declined(e)
	}
	return s.hybReason
}

// HybClock returns the rank's hybrid clock, nil for DES ranks.
func (r *Rank) HybClock() *HybClock { return r.hc }

// hybCompute prices one compute phase on the hybrid clock with the exact
// arithmetic of the DES path: flop time, then streaming, then random
// access, as three sequential clock advances (Compute's phases are
// sequential in the DES too). With one task per node each PSResource has
// a single consumer and the DES completion is now + amount/Capacity
// bit-for-bit; with VN packing the analytic tier charges the uniform
// share — every node-mate streaming concurrently — which is the DES
// steady state for the symmetric rank programs the tier admits.
func (r *Rank) hybCompute(w Work) {
	s := r.sys
	ft := w.flopTime(s.M)
	r.hc.T += ft
	share := 1.0
	if s.hybTier == HybridAnalytic {
		share = float64(s.TasksPerNode)
	}
	if w.StreamBytes > 0 {
		r.hc.T += w.StreamBytes * share / s.M.Mem.StreamBW()
	}
	if w.RandomAccesses > 0 {
		r.hc.T += w.RandomAccesses * share / s.M.Mem.RandomRate()
	}
}
