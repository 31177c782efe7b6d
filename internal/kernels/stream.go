package kernels

import "fmt"

// StreamTriad performs a[i] = b[i] + s*c[i], the headline STREAM operation
// as McCalpin defines it. STREAM is the low-temporal/high-spatial locality
// kernel of the HPCC taxonomy (§5.1): one pass over long arrays with no
// reuse, so performance is the socket's streaming memory bandwidth — which
// is why a single Opteron core can nearly saturate it and the second core
// adds almost nothing (Figure 7). Bytes moved: 24 per element (32 counting
// write-allocate).
func StreamTriad(a, b, c []float64, s float64) {
	if len(a) != len(b) || len(b) != len(c) {
		panic(fmt.Sprintf("kernels: stream length mismatch %d/%d/%d", len(a), len(b), len(c)))
	}
	for i := range a {
		a[i] = b[i] + s*c[i]
	}
}

// TriadBytes returns the STREAM convention byte count for an n-element
// triad.
func TriadBytes(n int) float64 { return 24 * float64(n) }
