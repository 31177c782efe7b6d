package kernels

import (
	"fmt"
	"math"
)

// Conjugate-gradient solvers. POP's barotropic phase is "dominated by the
// solution of a 2D, implicit system" via CG (§6.2), and its scaling is
// limited by the MPI_Allreduce calls that compute inner products. The
// Chronopoulos–Gear variant fuses the two inner products of each iteration
// into one reduction — "half the number of calls to MPI_Allreduce" — which
// is exactly the backport the paper benchmarks in Figures 18 and 19.

// Operator applies a linear operator: y = A·x. Implementations must not
// retain the slices.
type Operator interface {
	Apply(y, x []float64)
	Dim() int
}

// CGStats reports the communication-relevant counts of a solve: in a
// distributed solver, the Allreduce calls and halo exchanges it would make.
type CGStats struct {
	Iterations int
	// Reductions is the number of global inner-product reductions
	// (MPI_Allreduce calls in the distributed implementation).
	Reductions int
	// SpMVs is the number of operator applications (halo exchanges in the
	// distributed implementation).
	SpMVs int
	// FinalResidual is ‖b−Ax‖₂ at exit.
	FinalResidual float64
}

// CG solves A x = b with the standard (two-reductions-per-iteration)
// conjugate-gradient method. x is updated in place; it may start at zero.
func CG(a Operator, x, b []float64, tol float64, maxIter int) CGStats {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("kernels: CG dimension mismatch %d/%d/%d", n, len(x), len(b)))
	}
	r := make([]float64, n)
	p := make([]float64, n)
	ap := make([]float64, n)

	var st CGStats
	a.Apply(r, x)
	st.SpMVs++
	for i := range r {
		r[i] = b[i] - r[i]
	}
	copy(p, r)
	rsold := dot(r, r)
	st.Reductions++ // initial ‖r‖²

	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		if math.Sqrt(rsold) <= tol {
			break
		}
		a.Apply(ap, p)
		st.SpMVs++
		pap := dot(p, ap)
		st.Reductions++ // reduction 1: p·Ap
		alpha := rsold / pap
		for i := range x {
			x[i] += alpha * p[i]
			r[i] -= alpha * ap[i]
		}
		rsnew := dot(r, r)
		st.Reductions++ // reduction 2: r·r
		beta := rsnew / rsold
		for i := range p {
			p[i] = r[i] + beta*p[i]
		}
		rsold = rsnew
	}
	st.FinalResidual = math.Sqrt(rsold)
	return st
}

// CGChronopoulosGear solves A x = b with the Chronopoulos–Gear
// single-reduction CG [28]: both inner products of an iteration ((r,r) and
// (w,r) with w = A r) are computed from the same vectors and can share one
// fused reduction.
func CGChronopoulosGear(a Operator, x, b []float64, tol float64, maxIter int) CGStats {
	n := a.Dim()
	if len(x) != n || len(b) != n {
		panic(fmt.Sprintf("kernels: C-G CG dimension mismatch %d/%d/%d", n, len(x), len(b)))
	}
	r := make([]float64, n)
	w := make([]float64, n)
	p := make([]float64, n)
	s := make([]float64, n)

	var st CGStats
	a.Apply(r, x)
	st.SpMVs++
	for i := range r {
		r[i] = b[i] - r[i]
	}
	a.Apply(w, r)
	st.SpMVs++
	gamma := dot(r, r)
	delta := dot(w, r)
	st.Reductions++ // gamma and delta travel in ONE fused reduction
	alpha := gamma / delta
	beta := 0.0

	for st.Iterations = 0; st.Iterations < maxIter; st.Iterations++ {
		if math.Sqrt(gamma) <= tol {
			break
		}
		for i := range p {
			p[i] = r[i] + beta*p[i]
			s[i] = w[i] + beta*s[i]
			x[i] += alpha * p[i]
			r[i] -= alpha * s[i]
		}
		a.Apply(w, r)
		st.SpMVs++
		gammaNew := dot(r, r)
		delta = dot(w, r)
		st.Reductions++ // again: one fused reduction for both scalars
		beta = gammaNew / gamma
		alpha = gammaNew / (delta - beta*gammaNew/alpha)
		gamma = gammaNew
	}
	st.FinalResidual = math.Sqrt(gamma)
	return st
}

func dot(a, b []float64) float64 {
	s := 0.0
	for i := range a {
		s += a[i] * b[i]
	}
	return s
}

// Poisson2D is the 5-point Laplacian on an nx×ny grid with Dirichlet
// boundaries — the shape of POP's barotropic elliptic system.
type Poisson2D struct {
	NX, NY int
}

// Dim returns the number of unknowns.
func (p Poisson2D) Dim() int { return p.NX * p.NY }

// Apply computes y = A·x for the 5-point operator.
func (p Poisson2D) Apply(y, x []float64) {
	nx, ny := p.NX, p.NY
	for j := 0; j < ny; j++ {
		for i := 0; i < nx; i++ {
			idx := j*nx + i
			v := 4 * x[idx]
			if i > 0 {
				v -= x[idx-1]
			}
			if i < nx-1 {
				v -= x[idx+1]
			}
			if j > 0 {
				v -= x[idx-nx]
			}
			if j < ny-1 {
				v -= x[idx+nx]
			}
			y[idx] = v
		}
	}
}
