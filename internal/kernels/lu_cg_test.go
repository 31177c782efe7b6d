package kernels

import (
	"math"
	"math/rand"
	"testing"
)

func TestLUFlopsConvention(t *testing.T) {
	// HPL: 2n³/3 + 3n²/2.
	if got, want := LUFlops(100), 2e6/3.0+1.5e4; math.Abs(got-want) > 1 {
		t.Fatalf("LUFlops(100) = %v, want %v", got, want)
	}
}

func poissonRHS(p Poisson2D, rng *rand.Rand) []float64 {
	b := make([]float64, p.Dim())
	for i := range b {
		b[i] = rng.NormFloat64()
	}
	return b
}

func TestCGSolvesPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(10))
	p := Poisson2D{NX: 24, NY: 24}
	b := poissonRHS(p, rng)
	x := make([]float64, p.Dim())
	st := CG(p, x, b, 1e-10, 5000)
	if st.FinalResidual > 1e-10 {
		t.Fatalf("CG did not converge: %+v", st)
	}
	// Verify against the operator directly.
	y := make([]float64, p.Dim())
	p.Apply(y, x)
	if maxAbsDiff(y, b) > 1e-8 {
		t.Fatal("CG solution does not satisfy the system")
	}
}

func TestChronopoulosGearSolvesPoisson(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	p := Poisson2D{NX: 24, NY: 24}
	b := poissonRHS(p, rng)
	x := make([]float64, p.Dim())
	st := CGChronopoulosGear(p, x, b, 1e-10, 5000)
	if st.FinalResidual > 1e-10 {
		t.Fatalf("C-G CG did not converge: %+v", st)
	}
	y := make([]float64, p.Dim())
	p.Apply(y, x)
	if maxAbsDiff(y, b) > 1e-8 {
		t.Fatal("C-G CG solution does not satisfy the system")
	}
}

func TestChronopoulosGearHalvesReductions(t *testing.T) {
	// The paper's algorithmic point (§6.2): C-G requires half the
	// MPI_Allreduce calls of standard CG for the same convergence work.
	rng := rand.New(rand.NewSource(12))
	p := Poisson2D{NX: 32, NY: 32}
	b := poissonRHS(p, rng)

	x1 := make([]float64, p.Dim())
	std := CG(p, x1, b, 1e-9, 5000)
	x2 := make([]float64, p.Dim())
	cg := CGChronopoulosGear(p, x2, b, 1e-9, 5000)

	// Iteration counts are nearly identical (same Krylov space)...
	if d := math.Abs(float64(std.Iterations - cg.Iterations)); d > 0.1*float64(std.Iterations)+2 {
		t.Fatalf("iteration counts diverge: %d vs %d", std.Iterations, cg.Iterations)
	}
	// ...but reductions per iteration drop from 2 to 1.
	stdPer := float64(std.Reductions-1) / float64(std.Iterations)
	cgPer := float64(cg.Reductions-1) / float64(cg.Iterations)
	if math.Abs(stdPer-2) > 0.05 {
		t.Fatalf("standard CG reductions/iter = %v, want 2", stdPer)
	}
	if math.Abs(cgPer-1) > 0.05 {
		t.Fatalf("C-G reductions/iter = %v, want 1", cgPer)
	}
}

func TestCGBothVariantsAgree(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	p := Poisson2D{NX: 16, NY: 20}
	b := poissonRHS(p, rng)
	x1 := make([]float64, p.Dim())
	x2 := make([]float64, p.Dim())
	CG(p, x1, b, 1e-12, 5000)
	CGChronopoulosGear(p, x2, b, 1e-12, 5000)
	if d := maxAbsDiff(x1, x2); d > 1e-8 {
		t.Fatalf("solutions differ by %g", d)
	}
}

func TestPoissonOperatorSymmetric(t *testing.T) {
	// (Ax, y) == (x, Ay) — SPD operator sanity.
	rng := rand.New(rand.NewSource(14))
	p := Poisson2D{NX: 9, NY: 7}
	x := make([]float64, p.Dim())
	y := make([]float64, p.Dim())
	for i := range x {
		x[i] = rng.NormFloat64()
		y[i] = rng.NormFloat64()
	}
	ax := make([]float64, p.Dim())
	ay := make([]float64, p.Dim())
	p.Apply(ax, x)
	p.Apply(ay, y)
	if math.Abs(dot(ax, y)-dot(x, ay)) > 1e-9 {
		t.Fatal("Poisson operator is not symmetric")
	}
}

func BenchmarkCGPoisson(b *testing.B) {
	rng := rand.New(rand.NewSource(1))
	p := Poisson2D{NX: 64, NY: 64}
	rhs := poissonRHS(p, rng)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		x := make([]float64, p.Dim())
		CG(p, x, rhs, 1e-8, 10000)
	}
}
