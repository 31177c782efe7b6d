package kernels

import (
	"math"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomDense(rng *rand.Rand, rows, cols int) *Dense {
	m := NewDense(rows, cols)
	for i := range m.Data {
		m.Data[i] = rng.NormFloat64()
	}
	return m
}

func maxAbsDiff(a, b []float64) float64 {
	worst := 0.0
	for i := range a {
		if d := math.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestGEMMMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for _, dims := range [][3]int{{1, 1, 1}, {3, 4, 5}, {64, 64, 64}, {65, 63, 130}, {100, 1, 100}} {
		m, k, n := dims[0], dims[1], dims[2]
		a := randomDense(rng, m, k)
		b := randomDense(rng, k, n)
		c1 := NewDense(m, n)
		c2 := NewDense(m, n)
		GEMMNaive(a, b, c1)
		GEMM(a, b, c2)
		if d := maxAbsDiff(c1.Data, c2.Data); d > 1e-10 {
			t.Errorf("dims %v: blocked vs naive diff %g", dims, d)
		}
	}
}

func TestGEMMAccumulates(t *testing.T) {
	a := NewDense(2, 2)
	b := NewDense(2, 2)
	c := NewDense(2, 2)
	a.Set(0, 0, 1)
	a.Set(1, 1, 1) // identity
	b.Set(0, 0, 3)
	b.Set(1, 1, 4)
	c.Set(0, 0, 10)
	GEMM(a, b, c) // c += I*b
	if c.At(0, 0) != 13 || c.At(1, 1) != 4 {
		t.Fatalf("accumulate failed: %v", c.Data)
	}
}

func TestGEMMIdentityProperty(t *testing.T) {
	// A * I == A for random A.
	f := func(seed int64, nRaw uint8) bool {
		n := int(nRaw%16) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, n, n)
		id := NewDense(n, n)
		for i := 0; i < n; i++ {
			id.Set(i, i, 1)
		}
		c := NewDense(n, n)
		GEMM(a, id, c)
		return maxAbsDiff(c.Data, a.Data) < 1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func TestGEMMShapeMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("shape mismatch did not panic")
		}
	}()
	GEMM(NewDense(2, 3), NewDense(2, 3), NewDense(2, 3))
}

func TestDGEMMFlops(t *testing.T) {
	if got := DGEMMFlops(10, 20, 30); got != 12000 {
		t.Fatalf("flops = %v, want 12000", got)
	}
}

func BenchmarkDGEMMBlocked(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	x := randomDense(rng, n, n)
	y := randomDense(rng, n, n)
	c := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMM(x, y, c)
	}
	b.ReportMetric(DGEMMFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}

func BenchmarkDGEMMNaive(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 256
	x := randomDense(rng, n, n)
	y := randomDense(rng, n, n)
	c := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		GEMMNaive(x, y, c)
	}
	b.ReportMetric(DGEMMFlops(n, n, n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
