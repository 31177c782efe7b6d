package network

import (
	"strings"
	"testing"

	"xtsim/internal/machine"
	"xtsim/internal/sim"
	"xtsim/internal/torus"
)

// neighbourScript is a single-owner workload: every node sends to its six
// nearest neighbours, in rounds, at sizes on both sides of the rendezvous
// threshold. Each route is one hop out of the sender's own node, so every
// link and injection port has exactly one sender — the condition under
// which the sharded (zero foreign hops) and exact hybrid ledgers must
// reproduce the serial fabric bit for bit. Same-node pairs from degenerate
// rings take the memory-copy path.
func neighbourScript(tor torus.Torus) []Msg {
	sizes := []int64{8, 4096, 64 << 10, 256 << 10}
	steps := []torus.Coord{{X: 1}, {X: -1}, {Y: 1}, {Y: -1}, {Z: 1}, {Z: -1}}
	var msgs []Msg
	for round := 0; round < 3; round++ {
		for src := 0; src < tor.Nodes(); src++ {
			c := tor.Coord(src)
			for i, d := range steps {
				dst := tor.ID(torus.Coord{X: c.X + d.X, Y: c.Y + d.Y, Z: c.Z + d.Z})
				msgs = append(msgs, Msg{
					SrcNode: src, DstNode: dst,
					Bytes: sizes[(round+i+src)%len(sizes)],
					Mode:  machine.SN,
				})
			}
		}
	}
	return msgs
}

// departAt staggers the script's departures so injection ports and links
// see both queued and idle requests.
func departAt(i int) sim.Time { return sim.Time(i/5) * 3e-6 }

func TestOneWalkIdenticalAcrossEngines(t *testing.T) {
	m := machine.XT4()
	const nodes = 64
	serial := New(sim.NewEngine(), m, nodes)
	sharded := New(sim.NewEngine(), m, nodes)
	hybFab := New(sim.NewEngine(), m, nodes)
	script := neighbourScript(serial.Tor)

	part := torus.NewPartition(sharded.Tor, 2)
	if part.NumDomains() != 2 {
		t.Fatalf("partition of %v has %d domains, want 2", sharded.Tor, part.NumDomains())
	}
	sharded.EnableParallel(sim.NewSharded(2, Lookahead(m)), part, nil)
	sess := hybFab.BeginHybrid(true)

	for i, msg := range script {
		at := departAt(i)
		want := serial.Deliver(at, msg, nil)
		if got := sharded.Deliver(at, msg, nil); got != want {
			t.Fatalf("msg %d %v: sharded %+v, serial %+v", i, msg, got, want)
		}
		got, ok := sess.Price(at, msg, msg.SrcNode)
		if !ok {
			t.Fatalf("msg %d %v: exact ledger violated on a single-owner script", i, msg)
		}
		if got != want {
			t.Fatalf("msg %d %v: exact hybrid %+v, serial %+v", i, msg, got, want)
		}
	}
	if n := sharded.ForeignHops(); n != 0 {
		t.Fatalf("sharded ledger priced %d foreign hops on nearest-neighbour traffic", n)
	}
	// The books agree too: the domain ledgers reserved the fabric's own
	// resources exactly as the serial ledger did, and the session's private
	// copies hold the same state while the hybrid fabric stays untouched.
	for id := range serial.links {
		if sharded.links[id] != serial.links[id] || sess.led.links[id] != serial.links[id] {
			t.Fatalf("link %d: serial %+v, sharded %+v, hybrid %+v",
				id, serial.links[id], sharded.links[id], sess.led.links[id])
		}
		if hybFab.links[id] != (sim.FIFOResource{}) {
			t.Fatalf("hybrid session reserved fabric link %d", id)
		}
	}
	sharded.FoldParallel()
	sess.Commit()
	if sharded.MsgsDelivered != serial.MsgsDelivered || hybFab.MsgsDelivered != serial.MsgsDelivered ||
		sharded.BytesDelivered != serial.BytesDelivered || hybFab.BytesDelivered != serial.BytesDelivered {
		t.Fatalf("delivery counters diverge: serial %d/%d, sharded %d/%d, hybrid %d/%d",
			serial.MsgsDelivered, serial.BytesDelivered, sharded.MsgsDelivered, sharded.BytesDelivered,
			hybFab.MsgsDelivered, hybFab.BytesDelivered)
	}
}

func TestDomainLedgerPricesForeignHopsAtWireTime(t *testing.T) {
	m := machine.XT4()
	const nodes = 64
	serial := New(sim.NewEngine(), m, nodes)
	sharded := New(sim.NewEngine(), m, nodes)
	part := torus.NewPartition(sharded.Tor, 2)
	sharded.EnableParallel(sim.NewSharded(2, Lookahead(m)), part, nil)

	// A two-hop +Z route whose second link leaves the sending slab.
	tor := serial.Tor
	lo, _ := part.Planes(1)
	src := tor.ID(torus.Coord{Z: lo - 1})
	mid := tor.ID(torus.Coord{Z: lo})
	dst := tor.ID(torus.Coord{Z: lo + 1})
	if part.DomainOf(src) == part.DomainOf(mid) || tor.Hops(src, dst) != 2 {
		t.Fatalf("bad fixture on %v: src %d mid %d dst %d", tor, src, mid, dst)
	}
	// Occupy the foreign link first, from its own slab.
	busy := Msg{SrcNode: mid, DstNode: dst, Bytes: 1 << 20, Mode: machine.SN}
	serial.Deliver(0, busy, nil)
	sharded.Deliver(0, busy, nil)

	msg := Msg{SrcNode: src, DstNode: dst, Bytes: 4096, Mode: machine.SN}
	want := serial.Deliver(0, msg, nil)
	got := sharded.Deliver(0, msg, nil)
	if n := sharded.ForeignHops(); n != 1 {
		t.Fatalf("foreign hops = %d, want 1", n)
	}
	idle := New(sim.NewEngine(), m, nodes).Deliver(0, msg, nil)
	if got != idle {
		t.Fatalf("foreign hop not priced at wire time: sharded %+v, idle serial %+v", got, idle)
	}
	if !(got.Arrive < want.Arrive) {
		t.Fatalf("serial arrival %g should queue behind the busy link, sharded %g should not", want.Arrive, got.Arrive)
	}
}

func TestExactLedgerViolationLeavesFabricPristine(t *testing.T) {
	m := machine.XT4()
	tor := New(sim.NewEngine(), m, 64).Tor
	a := tor.ID(torus.Coord{X: 0})
	b := tor.ID(torus.Coord{X: 1})
	c := tor.ID(torus.Coord{X: 2})
	up := tor.ID(torus.Coord{Y: 1})
	// Rank 0 routes a→c over a's and b's +X links and a's injection port;
	// rank 1 then claims one of them (a→up books a's +Y link, unclaimed).
	for _, tc := range []struct {
		name     string
		src, dst int
	}{
		{"shared link", b, c},
		{"shared injection port", a, up},
	} {
		t.Run(tc.name, func(t *testing.T) {
			f := New(sim.NewEngine(), m, 64)
			sess := f.BeginHybrid(true)
			if _, ok := sess.Price(0, Msg{SrcNode: a, DstNode: c, Bytes: 64, Mode: machine.SN}, 0); !ok {
				t.Fatal("first claim on idle ledger refused")
			}
			if _, ok := sess.Price(0, Msg{SrcNode: tc.src, DstNode: tc.dst, Bytes: 64, Mode: machine.SN}, 1); ok {
				t.Fatal("shared resource priced: single-owner claim not enforced")
			}
			if v, why := sess.Violated(); !v || why != hybridViolationReason {
				t.Fatalf("Violated() = %v, %q", v, why)
			}
			if _, ok := sess.Price(0, Msg{SrcNode: a, DstNode: a, Bytes: 8, Mode: machine.SN}, 0); ok {
				t.Fatal("dead session priced a later transfer")
			}
			for id := range f.links {
				if f.links[id] != (sim.FIFOResource{}) {
					t.Fatalf("session reserved fabric link %d", id)
				}
			}
			for n := range f.nicTx {
				if f.nicTx[n] != (sim.FIFOResource{}) {
					t.Fatalf("session reserved fabric injection port %d", n)
				}
			}
			if f.MsgsDelivered != 0 || f.BytesDelivered != 0 {
				t.Fatalf("uncommitted session counted deliveries: %d msgs", f.MsgsDelivered)
			}
		})
	}
}

func TestVNDeliveryNeedsSerialLedger(t *testing.T) {
	m := machine.XT4()
	vn := Msg{SrcNode: 0, DstNode: 1, SrcCore: 1, Bytes: 64, Mode: machine.VN}
	for _, tc := range []struct {
		name string
		send func(f *Fabric)
	}{
		{"sharded", func(f *Fabric) {
			f.EnableParallel(sim.NewSharded(2, Lookahead(m)), torus.NewPartition(f.Tor, 2), nil)
			f.Deliver(0, vn, nil)
		}},
		{"exact hybrid", func(f *Fabric) {
			sess := f.BeginHybrid(true)
			sess.Price(0, vn, 0)
		}},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				r := recover()
				if s, _ := r.(string); !strings.Contains(s, "VN-mode delivery") {
					t.Fatalf("recovered %v, want the VN-mode panic", r)
				}
			}()
			tc.send(New(sim.NewEngine(), m, 64))
		})
	}
}
