package expt

import "testing"

// TestGlobalSweepsIgnoreHybridTier pins the -hybrid contract on the global
// HPCC sweeps: no tier reaches them, so fig8–11 render the same bytes with
// no tier requested, with `exact` and with `analytic`.
func TestGlobalSweepsIgnoreHybridTier(t *testing.T) {
	for _, id := range []string{"fig8", "fig9", "fig10", "fig11"} {
		want := renderExpt(t, id, Options{Short: true})
		for _, tier := range []string{"exact", "analytic"} {
			if got := renderExpt(t, id, Options{Short: true, Hybrid: tier}); got != want {
				t.Errorf("%s -hybrid %s renders\n%swant (no tier)\n%s", id, tier, got, want)
			}
		}
	}
}
