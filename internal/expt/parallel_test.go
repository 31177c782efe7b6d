package expt

import (
	"bytes"
	"strings"
	"testing"
)

func renderExpt(t *testing.T, id string, o Options) string {
	t.Helper()
	e, err := ByID(id)
	if err != nil {
		t.Fatal(err)
	}
	res, err := e.Execute(o)
	if err != nil {
		t.Fatalf("%s: %v", id, err)
	}
	var buf bytes.Buffer
	if err := res.Render(&buf); err != nil {
		t.Fatal(err)
	}
	return buf.String()
}

// TestShardsOutputByteIdentical pins the -shards contract: for experiments
// spanning all three parallel paths — campaign-cell sweeps (fig9, fig11),
// the admission fallback (congestion declines under telemetry), and the
// sharded discrete-event scheduler itself (ext-parallel) — rendered output
// at -shards 4 is byte-identical to the serial run. The I/O experiments
// (ext-io, ext-ckpt) exercise the conservative fallback: their cells fan
// out on the worker pool, but within each cell the engine must stay serial
// (telemetry and the I/O attach — see TestExtCkptShardsFallbackReason).
func TestShardsOutputByteIdentical(t *testing.T) {
	if testing.Short() {
		t.Skip("renders six experiments twice")
	}
	for _, id := range []string{"fig9", "fig11", "congestion", "ext-parallel", "ext-io", "ext-ckpt"} {
		serial := renderExpt(t, id, Options{Short: true})
		sharded := renderExpt(t, id, Options{Short: true, Shards: 4})
		if serial != sharded {
			t.Errorf("%s: rendered output differs between serial and -shards 4:\n--- serial ---\n%s--- shards=4 ---\n%s", id, serial, sharded)
		}
	}
}

// TestShardsRunTwiceDeterministic pins run-to-run determinism of the full
// experiment path at -shards 4.
func TestShardsRunTwiceDeterministic(t *testing.T) {
	o := Options{Short: true, Shards: 4}
	a := renderExpt(t, "ext-parallel", o)
	b := renderExpt(t, "ext-parallel", o)
	if a != b {
		t.Fatalf("two identical -shards 4 runs diverged:\n%s\nvs\n%s", a, b)
	}
}

// TestExtParallelReportsEquivalence pins the experiment's own equivalence
// assertion: the sharded rows must say "identical" with zero foreign hops.
func TestExtParallelReportsEquivalence(t *testing.T) {
	out := renderExpt(t, "ext-parallel", Options{Short: true})
	if strings.Contains(out, "DIVERGED") {
		t.Fatalf("ext-parallel reports divergence:\n%s", out)
	}
	if strings.Contains(out, "declined") {
		t.Fatalf("ext-parallel admission declined:\n%s", out)
	}
	if !strings.Contains(out, "identical") {
		t.Fatalf("ext-parallel did not confirm equivalence:\n%s", out)
	}
}
