package kernels

import (
	"math"
	"math/cmplx"
	"math/rand"
	"testing"
	"testing/quick"
)

func randomComplex(rng *rand.Rand, n int) []complex128 {
	x := make([]complex128, n)
	for i := range x {
		x[i] = complex(rng.NormFloat64(), rng.NormFloat64())
	}
	return x
}

func maxCmplxDiff(a, b []complex128) float64 {
	worst := 0.0
	for i := range a {
		if d := cmplx.Abs(a[i] - b[i]); d > worst {
			worst = d
		}
	}
	return worst
}

func TestFFTMatchesDFT(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	for _, n := range []int{1, 2, 4, 8, 16, 64, 256} {
		x := randomComplex(rng, n)
		want := DFTSlow(x)
		got := append([]complex128(nil), x...)
		FFT(got)
		if d := maxCmplxDiff(got, want); d > 1e-8 {
			t.Errorf("n=%d: FFT vs DFT diff %g", n, d)
		}
	}
}

func TestFFTInverseRoundTrip(t *testing.T) {
	rng := rand.New(rand.NewSource(4))
	x := randomComplex(rng, 1024)
	y := append([]complex128(nil), x...)
	FFT(y)
	IFFT(y)
	if d := maxCmplxDiff(x, y); d > 1e-10 {
		t.Fatalf("round trip diff %g", d)
	}
}

// Property: Parseval — the FFT preserves energy up to the 1/n convention.
func TestFFTParsevalProperty(t *testing.T) {
	f := func(seed int64, nPow uint8) bool {
		n := 1 << (nPow%9 + 1) // 2..512
		rng := rand.New(rand.NewSource(seed))
		x := randomComplex(rng, n)
		tEnergy := 0.0
		for _, v := range x {
			tEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		FFT(x)
		fEnergy := 0.0
		for _, v := range x {
			fEnergy += real(v)*real(v) + imag(v)*imag(v)
		}
		return math.Abs(fEnergy-float64(n)*tEnergy) < 1e-6*math.Max(1, fEnergy)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTLinearityProperty(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const n = 64
		x := randomComplex(rng, n)
		y := randomComplex(rng, n)
		sum := make([]complex128, n)
		for i := range sum {
			sum[i] = x[i] + y[i]
		}
		FFT(x)
		FFT(y)
		FFT(sum)
		for i := range sum {
			if cmplx.Abs(sum[i]-(x[i]+y[i])) > 1e-9 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestFFTImpulse(t *testing.T) {
	// FFT of a unit impulse is all ones.
	x := make([]complex128, 16)
	x[0] = 1
	FFT(x)
	for i, v := range x {
		if cmplx.Abs(v-1) > 1e-12 {
			t.Fatalf("impulse bin %d = %v", i, v)
		}
	}
}

func TestFFTNonPowerOfTwoPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("n=12 did not panic")
		}
	}()
	FFT(make([]complex128, 12))
}

func TestFFTFlopsConvention(t *testing.T) {
	if got := FFTFlops(1024); got != 5*1024*10 {
		t.Fatalf("FFTFlops(1024) = %v", got)
	}
}

func BenchmarkFFT1M(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	const n = 1 << 20
	x := randomComplex(rng, n)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		FFT(x)
	}
	b.ReportMetric(FFTFlops(n)*float64(b.N)/b.Elapsed().Seconds()/1e9, "GFLOPS")
}
