package kernels

import (
	"math/rand"
	"testing"
	"testing/quick"
)

func TestStreamOps(t *testing.T) {
	const n = 100
	a := make([]float64, n)
	b := make([]float64, n)
	c := make([]float64, n)
	for i := range b {
		b[i] = float64(i)
		c[i] = float64(2 * i)
	}
	StreamTriad(a, b, c, 2)
	for i := range a {
		if a[i] != float64(i)+4*float64(i) {
			t.Fatal("triad failed")
		}
	}
}

func TestStreamLengthMismatchPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("length mismatch did not panic")
		}
	}()
	StreamTriad(make([]float64, 3), make([]float64, 4), make([]float64, 3), 1)
}

func TestTriadBytes(t *testing.T) {
	if TriadBytes(1000) != 24000 {
		t.Fatal("triad byte accounting wrong")
	}
}

func TestRandomAccessVerifyZeroErrors(t *testing.T) {
	// XOR updates applied twice restore the identity table.
	table := make([]uint64, 1<<12)
	RandomAccessInit(table)
	seed := RAStart(0)
	nUpdates := int64(4 * len(table))
	end := RandomAccessUpdate(table, seed, nUpdates)
	if end == seed {
		t.Fatal("stream did not advance")
	}
	if errs := RandomAccessVerify(table, seed, nUpdates); errs != 0 {
		t.Fatalf("verification found %d errors", errs)
	}
}

func TestRAStartMatchesSequentialGeneration(t *testing.T) {
	// RAStart(n) must equal n steps of the LFSR from RAStart(0).
	x := RAStart(0)
	for n := int64(1); n <= 200; n++ {
		x = raNext(x)
		if got := RAStart(n); got != x {
			t.Fatalf("RAStart(%d) = %#x, want %#x", n, got, x)
		}
	}
}

// Property: disjoint stream shards compose — running the second shard from
// RAStart(k) continues exactly where the first shard stopped. This is the
// invariant the distributed MPI RandomAccess relies on.
func TestRAShardCompositionProperty(t *testing.T) {
	f := func(kRaw uint16) bool {
		k := int64(kRaw%1000) + 1
		table1 := make([]uint64, 1<<8)
		table2 := make([]uint64, 1<<8)
		RandomAccessInit(table1)
		RandomAccessInit(table2)
		// One run of 2k updates...
		RandomAccessUpdate(table1, RAStart(0), 2*k)
		// ...equals two runs of k updates with a jump between.
		mid := RandomAccessUpdate(table2, RAStart(0), k)
		if mid != RAStart(k) {
			return false
		}
		RandomAccessUpdate(table2, mid, k)
		for i := range table1 {
			if table1[i] != table2[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestRandomAccessBadTablePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("non-power-of-two table did not panic")
		}
	}()
	RandomAccessUpdate(make([]uint64, 100), 1, 10)
}

func TestTransposeInvolution(t *testing.T) {
	rng := rand.New(rand.NewSource(6))
	a := randomDense(rng, 45, 77)
	b := NewDense(77, 45)
	c := NewDense(45, 77)
	Transpose(b, a)
	Transpose(c, b)
	if d := maxAbsDiff(a.Data, c.Data); d != 0 {
		t.Fatalf("transpose twice changed the matrix (diff %g)", d)
	}
}

func TestTransposeMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	a := randomDense(rng, 100, 60)
	b1 := NewDense(60, 100)
	b2 := NewDense(60, 100)
	Transpose(b1, a)
	TransposeNaive(b2, a)
	if d := maxAbsDiff(b1.Data, b2.Data); d != 0 {
		t.Fatalf("blocked vs naive transpose diff %g", d)
	}
}

// Property: transpose maps (i,j) to (j,i) for arbitrary shapes.
func TestTransposeElementProperty(t *testing.T) {
	f := func(seed int64, rRaw, cRaw uint8) bool {
		rows := int(rRaw%40) + 1
		cols := int(cRaw%40) + 1
		rng := rand.New(rand.NewSource(seed))
		a := randomDense(rng, rows, cols)
		b := NewDense(cols, rows)
		Transpose(b, a)
		for i := 0; i < rows; i++ {
			for j := 0; j < cols; j++ {
				if a.At(i, j) != b.At(j, i) {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

func BenchmarkStreamTriad(b *testing.B) {
	const n = 1 << 22
	x := make([]float64, n)
	y := make([]float64, n)
	z := make([]float64, n)
	for i := range y {
		y[i] = float64(i)
		z[i] = 2
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		StreamTriad(x, y, z, 3)
	}
	b.ReportMetric(TriadBytes(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}

func BenchmarkRandomAccess(b *testing.B) {
	table := make([]uint64, 1<<22)
	RandomAccessInit(table)
	seed := RAStart(0)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		seed = RandomAccessUpdate(table, seed, 1<<20)
	}
	b.ReportMetric(float64(b.N)*float64(1<<20)/b.Elapsed().Seconds()/1e9, "GUPS")
}

func BenchmarkTranspose(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 2048
	a := randomDense(rng, n, n)
	c := NewDense(n, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		Transpose(c, a)
	}
	b.ReportMetric(PTRANSBytes(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GB/s")
}
