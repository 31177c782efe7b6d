package torus

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestCoordIDRoundTrip(t *testing.T) {
	tor := New(4, 3, 5)
	for id := 0; id < tor.Nodes(); id++ {
		if got := tor.ID(tor.Coord(id)); got != id {
			t.Fatalf("round trip %d -> %v -> %d", id, tor.Coord(id), got)
		}
	}
}

func TestIDWrapsCoordinates(t *testing.T) {
	tor := New(4, 4, 4)
	if tor.ID(Coord{X: -1, Y: 0, Z: 0}) != tor.ID(Coord{X: 3, Y: 0, Z: 0}) {
		t.Fatal("negative X did not wrap")
	}
	if tor.ID(Coord{X: 4, Y: 5, Z: 9}) != tor.ID(Coord{X: 0, Y: 1, Z: 1}) {
		t.Fatal("overflow coordinates did not wrap")
	}
}

func TestHopsNearestNeighbour(t *testing.T) {
	tor := New(8, 8, 8)
	a := tor.ID(Coord{1, 2, 3})
	b := tor.ID(Coord{2, 2, 3})
	if got := tor.Hops(a, b); got != 1 {
		t.Fatalf("nearest neighbour hops = %d, want 1", got)
	}
}

func TestHopsWrapAround(t *testing.T) {
	tor := New(8, 1, 1)
	a := tor.ID(Coord{0, 0, 0})
	b := tor.ID(Coord{7, 0, 0})
	// Shortest way is one hop backwards around the ring.
	if got := tor.Hops(a, b); got != 1 {
		t.Fatalf("wrap hops = %d, want 1", got)
	}
}

func TestHopsSelfZero(t *testing.T) {
	tor := New(4, 4, 4)
	if tor.Hops(9, 9) != 0 {
		t.Fatal("self distance should be 0")
	}
	if len(tor.Route(9, 9)) != 0 {
		t.Fatal("self route should be empty")
	}
}

func TestRouteLengthMatchesHops(t *testing.T) {
	tor := New(5, 4, 3)
	rng := rand.New(rand.NewSource(1))
	for i := 0; i < 500; i++ {
		a := rng.Intn(tor.Nodes())
		b := rng.Intn(tor.Nodes())
		if got := len(tor.Route(a, b)); got != tor.Hops(a, b) {
			t.Fatalf("route(%d,%d) len %d != hops %d", a, b, got, tor.Hops(a, b))
		}
	}
}

func TestRouteIsContiguous(t *testing.T) {
	tor := New(6, 5, 4)
	rng := rand.New(rand.NewSource(2))
	for i := 0; i < 200; i++ {
		a := rng.Intn(tor.Nodes())
		b := rng.Intn(tor.Nodes())
		route := tor.Route(a, b)
		cur := a
		for _, l := range route {
			if l.From != cur {
				t.Fatalf("route(%d,%d): link from %d but current node %d", a, b, l.From, cur)
			}
			c := tor.Coord(cur)
			switch l.Dim {
			case X:
				c.X += l.Dir
			case Y:
				c.Y += l.Dir
			case Z:
				c.Z += l.Dir
			}
			cur = tor.ID(c)
		}
		if cur != b {
			t.Fatalf("route(%d,%d) ends at %d", a, b, cur)
		}
	}
}

func TestRouteDimensionOrdered(t *testing.T) {
	tor := New(8, 8, 8)
	route := tor.Route(tor.ID(Coord{0, 0, 0}), tor.ID(Coord{2, 3, 1}))
	lastDim := Dim(-1)
	for _, l := range route {
		if l.Dim < lastDim {
			t.Fatalf("dimension order violated: %v", route)
		}
		lastDim = l.Dim
	}
}

// Property: hop distance is symmetric (the shortest ring distance each way
// is the same), and bounded by the diameter.
func TestHopsSymmetricProperty(t *testing.T) {
	tor := New(7, 5, 3)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tor.Nodes()
		b := int(bRaw) % tor.Nodes()
		h := tor.Hops(a, b)
		return h == tor.Hops(b, a) && h <= tor.MaxHops()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestLinkIDDense(t *testing.T) {
	tor := New(3, 3, 3)
	seen := make(map[int]bool)
	for n := 0; n < tor.Nodes(); n++ {
		for _, dim := range []Dim{X, Y, Z} {
			for _, dir := range []int{+1, -1} {
				id := tor.LinkID(Link{From: n, Dim: dim, Dir: dir})
				if id < 0 || id >= tor.NumLinks() {
					t.Fatalf("link id %d out of range", id)
				}
				if seen[id] {
					t.Fatalf("duplicate link id %d", id)
				}
				seen[id] = true
			}
		}
	}
	if len(seen) != tor.NumLinks() {
		t.Fatalf("got %d distinct ids, want %d", len(seen), tor.NumLinks())
	}
}

func TestAvgHops(t *testing.T) {
	// On a ring of 4, distances from a node: 0,1,2,1 → mean incl. self 1.0.
	// Excluding self-pairs over a 4x1x1 torus: 4/3.
	tor := New(4, 1, 1)
	if got, want := tor.AvgHops(), 4.0/3.0; !almost(got, want) {
		t.Fatalf("avg hops = %v, want %v", got, want)
	}
}

func TestMaxHops(t *testing.T) {
	tor := New(8, 6, 4)
	if got := tor.MaxHops(); got != 4+3+2 {
		t.Fatalf("diameter = %d, want 9", got)
	}
	// And an actual farthest pair achieves it.
	a := tor.ID(Coord{0, 0, 0})
	b := tor.ID(Coord{4, 3, 2})
	if got := tor.Hops(a, b); got != tor.MaxHops() {
		t.Fatalf("antipodal hops = %d, want %d", got, tor.MaxHops())
	}
}

func TestDegenerateDimensions(t *testing.T) {
	tor := New(1, 1, 1)
	if tor.Nodes() != 1 || tor.AvgHops() != 0 {
		t.Fatal("1x1x1 torus misbehaves")
	}
	tor2 := New(2, 1, 1)
	if tor2.Hops(0, 1) != 1 {
		t.Fatal("2-ring distance should be 1")
	}
}

func TestInvalidDimensionsPanic(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("zero dimension did not panic")
		}
	}()
	New(0, 4, 4)
}

func almost(a, b float64) bool {
	d := a - b
	if d < 0 {
		d = -d
	}
	return d < 1e-12
}

// Property: a dimension-ordered route never revisits a link (minimal
// routes cannot loop).
func TestRouteLinksDistinctProperty(t *testing.T) {
	tor := New(6, 5, 4)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tor.Nodes()
		b := int(bRaw) % tor.Nodes()
		seen := map[int]bool{}
		for _, l := range tor.Route(a, b) {
			id := tor.LinkID(l)
			if seen[id] {
				return false
			}
			seen[id] = true
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: route length never exceeds the diameter, and a route between
// distinct nodes is non-empty.
func TestRouteBoundedProperty(t *testing.T) {
	tor := New(8, 3, 5)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tor.Nodes()
		b := int(bRaw) % tor.Nodes()
		r := tor.Route(a, b)
		if a == b {
			return len(r) == 0
		}
		return len(r) >= 1 && len(r) <= tor.MaxHops()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200}); err != nil {
		t.Fatal(err)
	}
}

// Property: AppendLinkIDs matches Route composed with LinkID for every
// pair, including appending after an existing prefix.
func TestAppendLinkIDsMatchesRouteProperty(t *testing.T) {
	tor := New(5, 4, 3)
	f := func(aRaw, bRaw uint16) bool {
		a := int(aRaw) % tor.Nodes()
		b := int(bRaw) % tor.Nodes()
		want := tor.Route(a, b)
		got := tor.AppendLinkIDs(nil, a, b)
		if len(got) != len(want) {
			return false
		}
		for i, l := range want {
			if int(got[i]) != tor.LinkID(l) {
				return false
			}
		}
		// Appending onto a prefix must leave the prefix intact.
		pre := tor.AppendLinkIDs([]int32{-7}, a, b)
		if pre[0] != -7 || len(pre) != len(want)+1 {
			return false
		}
		for i := range got {
			if pre[i+1] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Fatal(err)
	}
}

func TestRouteCacheMatchesRoute(t *testing.T) {
	tor := New(4, 4, 4)
	c := NewRouteCache(tor, tor.Nodes()*tor.Nodes())
	for a := 0; a < tor.Nodes(); a++ {
		for b := 0; b < tor.Nodes(); b++ {
			ids := c.LinkIDs(a, b)
			want := tor.Route(a, b)
			if len(ids) != len(want) {
				t.Fatalf("cache route (%d,%d) len %d, want %d", a, b, len(ids), len(want))
			}
			for i, l := range want {
				if int(ids[i]) != tor.LinkID(l) {
					t.Fatalf("cache route (%d,%d)[%d] = %d, want %d", a, b, i, ids[i], tor.LinkID(l))
				}
			}
		}
	}
	if c.Len() != tor.Nodes()*tor.Nodes() {
		t.Fatalf("cache len = %d, want %d", c.Len(), tor.Nodes()*tor.Nodes())
	}
}

func TestRouteCacheHitsAndSharing(t *testing.T) {
	tor := New(4, 4, 1)
	c := NewRouteCache(tor, 64)
	first := c.LinkIDs(0, 5)
	second := c.LinkIDs(0, 5)
	if c.Len() != 1 {
		t.Fatalf("cache holds %d routes after two lookups of one pair, want 1", c.Len())
	}
	if len(first) == 0 || len(first) != len(second) {
		t.Fatalf("cached lookups disagree: %v vs %v", first, second)
	}
	if &first[0] != &second[0] {
		t.Fatal("second lookup did not return the cached slice")
	}
}

func TestRouteCacheBoundedEviction(t *testing.T) {
	tor := New(8, 8, 4)
	const max = 16
	c := NewRouteCache(tor, max)
	for b := 0; b < 10*max; b++ {
		c.LinkIDs(0, b%tor.Nodes())
		if c.Len() > max {
			t.Fatalf("cache grew to %d entries, bound is %d", c.Len(), max)
		}
	}
	// Routes must stay correct across evictions.
	ids := c.LinkIDs(3, 17)
	want := tor.Route(3, 17)
	if len(ids) != len(want) {
		t.Fatalf("post-eviction route len %d, want %d", len(ids), len(want))
	}
}
