// Package torus models the Cray SeaStar 3-D torus interconnect topology:
// node coordinates, dimension-ordered routing, and link identification.
//
// Each node has six links (±X, ±Y, ±Z). Routing is deterministic
// dimension-ordered (X, then Y, then Z), taking the shorter way around each
// ring, matching the XT3/XT4's deterministic virtual-cut-through routing.
package torus

import "fmt"

// Dim identifies a torus dimension.
type Dim int

// Torus dimensions in routing order.
const (
	X Dim = iota
	Y
	Z
)

func (d Dim) String() string {
	switch d {
	case X:
		return "X"
	case Y:
		return "Y"
	case Z:
		return "Z"
	}
	return fmt.Sprintf("Dim(%d)", int(d))
}

// Coord is a node position in the torus.
type Coord struct {
	X, Y, Z int
}

// Link is one directed hop: the output port of node From in dimension Dim,
// direction Dir (+1 or -1).
type Link struct {
	From int // source node id
	Dim  Dim
	Dir  int // +1 or -1
}

// Torus describes a 3-D torus of NX×NY×NZ nodes. All dimensions must be
// positive. A dimension of size 1 or 2 has degenerate rings (with size 2,
// both directions reach the same neighbour), which the router handles.
type Torus struct {
	NX, NY, NZ int
}

// New validates the dimensions and returns the topology.
func New(nx, ny, nz int) Torus {
	if nx < 1 || ny < 1 || nz < 1 {
		panic(fmt.Sprintf("torus: invalid dimensions %dx%dx%d", nx, ny, nz))
	}
	return Torus{NX: nx, NY: ny, NZ: nz}
}

// Nodes reports the total number of nodes.
func (t Torus) Nodes() int { return t.NX * t.NY * t.NZ }

// NumLinks reports the total number of directed links (six per node).
func (t Torus) NumLinks() int { return t.Nodes() * 6 }

// Coord converts a node id (0 ≤ id < Nodes) to its coordinate. X varies
// fastest.
func (t Torus) Coord(id int) Coord {
	if id < 0 || id >= t.Nodes() {
		panic(fmt.Sprintf("torus: node id %d out of range [0,%d)", id, t.Nodes()))
	}
	return Coord{
		X: id % t.NX,
		Y: (id / t.NX) % t.NY,
		Z: id / (t.NX * t.NY),
	}
}

// ID converts a coordinate to a node id. Coordinates are taken modulo the
// torus dimensions, so neighbours computed by naive ±1 arithmetic map
// correctly around the rings.
func (t Torus) ID(c Coord) int {
	x := mod(c.X, t.NX)
	y := mod(c.Y, t.NY)
	z := mod(c.Z, t.NZ)
	return x + t.NX*(y+t.NY*z)
}

func mod(a, n int) int {
	m := a % n
	if m < 0 {
		m += n
	}
	return m
}

// LinkID maps a directed link to a dense index in [0, NumLinks). Layout is
// node-major: node*6 + dim*2 + (0 for +, 1 for -).
func (t Torus) LinkID(l Link) int {
	d := 0
	if l.Dir < 0 {
		d = 1
	}
	return l.From*6 + int(l.Dim)*2 + d
}

// ringSteps returns the signed number of steps (direction and count) for
// the shortest way from a to b around a ring of size n. Ties (exactly half
// way) go in the + direction, keeping routing deterministic.
func ringSteps(a, b, n int) (dir, steps int) {
	if n == 1 || a == b {
		return 0, 0
	}
	fwd := mod(b-a, n)
	bwd := n - fwd
	if fwd <= bwd {
		return +1, fwd
	}
	return -1, bwd
}

// Hops reports the length of the dimension-ordered route from a to b.
func (t Torus) Hops(a, b int) int {
	ca, cb := t.Coord(a), t.Coord(b)
	_, sx := ringSteps(ca.X, cb.X, t.NX)
	_, sy := ringSteps(ca.Y, cb.Y, t.NY)
	_, sz := ringSteps(ca.Z, cb.Z, t.NZ)
	return sx + sy + sz
}

// Route returns the sequence of directed links from a to b under
// dimension-ordered routing (X, then Y, then Z, shortest way around each
// ring). Routing a node to itself returns an empty route.
func (t Torus) Route(a, b int) []Link {
	ca, cb := t.Coord(a), t.Coord(b)
	route := make([]Link, 0, t.Hops(a, b))
	cur := ca

	walk := func(dim Dim, from, to, n int) {
		dir, steps := ringSteps(from, to, n)
		for i := 0; i < steps; i++ {
			route = append(route, Link{From: t.ID(cur), Dim: dim, Dir: dir})
			switch dim {
			case X:
				cur.X = mod(cur.X+dir, t.NX)
			case Y:
				cur.Y = mod(cur.Y+dir, t.NY)
			case Z:
				cur.Z = mod(cur.Z+dir, t.NZ)
			}
		}
	}
	walk(X, ca.X, cb.X, t.NX)
	walk(Y, cur.Y, cb.Y, t.NY)
	walk(Z, cur.Z, cb.Z, t.NZ)
	if t.ID(cur) != b {
		panic(fmt.Sprintf("torus: route from %d did not reach %d (stopped at %d)", a, b, t.ID(cur)))
	}
	return route
}

// AppendLinkIDs appends the dense link ids (see LinkID) of the
// dimension-ordered route from a to b onto dst and returns the extended
// slice. It is Route composed with LinkID but without materialising Link
// values: with sufficient capacity in dst it performs no allocation, which
// is what the fabric's per-message hot path and the route cache rely on.
func (t Torus) AppendLinkIDs(dst []int32, a, b int) []int32 {
	ca, cb := t.Coord(a), t.Coord(b)
	cur := ca
	for dim := X; dim <= Z; dim++ {
		var from, to, n int
		switch dim {
		case X:
			from, to, n = cur.X, cb.X, t.NX
		case Y:
			from, to, n = cur.Y, cb.Y, t.NY
		case Z:
			from, to, n = cur.Z, cb.Z, t.NZ
		}
		dir, steps := ringSteps(from, to, n)
		d := 0
		if dir < 0 {
			d = 1
		}
		for i := 0; i < steps; i++ {
			dst = append(dst, int32(t.ID(cur)*6+int(dim)*2+d))
			switch dim {
			case X:
				cur.X = mod(cur.X+dir, t.NX)
			case Y:
				cur.Y = mod(cur.Y+dir, t.NY)
			case Z:
				cur.Z = mod(cur.Z+dir, t.NZ)
			}
		}
	}
	if t.ID(cur) != b {
		panic(fmt.Sprintf("torus: route from %d did not reach %d (stopped at %d)", a, b, t.ID(cur)))
	}
	return dst
}

// RouteCache memoises dimension-ordered routes as link-id slices, keyed by
// (src, dst). Deterministic routing makes routes immutable for a topology,
// so a cached route never goes stale; the cache is bounded so full-machine
// sweeps (where the pair space is quadratic in nodes) cannot grow it
// without limit. Eviction is a full reset on overflow — the workloads the
// simulator runs are phase-structured, so after a reset the working set
// repopulates in one round of messages, and a reset keeps lookups a single
// map probe with no recency bookkeeping.
//
// RouteCache is not safe for concurrent use; each Fabric (and therefore
// each engine) owns its own.
type RouteCache struct {
	t   Torus
	max int
	m   map[uint64][]int32
}

// NewRouteCache builds a cache over t holding at most maxEntries routes
// (minimum 1).
func NewRouteCache(t Torus, maxEntries int) *RouteCache {
	if maxEntries < 1 {
		maxEntries = 1
	}
	return &RouteCache{t: t, max: maxEntries, m: make(map[uint64][]int32)}
}

// Len reports the number of cached routes.
func (c *RouteCache) Len() int { return len(c.m) }

// LinkIDs returns the dense link ids of the dimension-ordered route from a
// to b, computing and caching it on first use. Callers must treat the
// returned slice as read-only: it is shared by every subsequent lookup of
// the same pair.
func (c *RouteCache) LinkIDs(a, b int) []int32 {
	key := uint64(uint32(a))<<32 | uint64(uint32(b))
	if ids, ok := c.m[key]; ok {
		return ids
	}
	ids := c.t.AppendLinkIDs(make([]int32, 0, c.t.Hops(a, b)), a, b)
	if len(c.m) >= c.max {
		c.m = make(map[uint64][]int32, c.max)
	}
	c.m[key] = ids
	return ids
}

// AvgHops returns the exact mean dimension-ordered hop count over all
// ordered pairs of distinct nodes. It is used to pick representative
// latency figures (the HPCC "ping-pong average") without enumerating pairs
// in the benchmarks themselves.
func (t Torus) AvgHops() float64 {
	// Hop count decomposes per dimension; the mean over a ring of size n of
	// the shortest distance from a fixed node to a uniformly random node
	// (including itself) is sum/n. Combined dimensions are independent.
	mean := func(n int) float64 {
		if n == 1 {
			return 0
		}
		total := 0
		for d := 0; d < n; d++ {
			_, s := ringSteps(0, d, n)
			total += s
		}
		return float64(total) / float64(n)
	}
	nodes := float64(t.Nodes())
	if nodes <= 1 {
		return 0
	}
	// Mean over all ordered pairs including self-pairs, then rescale to
	// exclude self-pairs (distance 0).
	m := mean(t.NX) + mean(t.NY) + mean(t.NZ)
	return m * nodes / (nodes - 1)
}

// MaxHops returns the network diameter under dimension-ordered routing.
func (t Torus) MaxHops() int {
	return t.NX/2 + t.NY/2 + t.NZ/2
}

func (t Torus) String() string {
	return fmt.Sprintf("%dx%dx%d torus (%d nodes)", t.NX, t.NY, t.NZ, t.Nodes())
}
