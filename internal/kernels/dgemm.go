// Package kernels holds the host-executable kernels of the HPCC locality
// taxonomy (§5.1) and the operation-count formulas the simulator uses in
// their place.
//
// cmd/hpcckern times the five kernels on the host, the way HPCC
// characterised the XT4: blocked DGEMM, the radix-2 FFT, the STREAM triad,
// RandomAccess and the PTRANS transpose. examples/popcg runs the two
// conjugate-gradient variants (standard and Chronopoulos–Gear) on a 2-D
// Poisson operator. The simulator executes none of them; it uses their
// formulas instead: DGEMMFlops, FFTFlops and TriadBytes size simulated
// kernels' work, LUFlops prices AORSA's solve and gives HPL's rate, and the
// stencil widths and HaloBytesPerFace size S3D's halo exchanges.
// GEMMNaive, DFTSlow, IFFT, TransposeNaive and RandomAccessVerify are the
// oracles the kernels' tests compare against.
package kernels

import "fmt"

// Dense is a dense row-major matrix of float64.
type Dense struct {
	Rows, Cols int
	Data       []float64
}

// NewDense allocates a zero matrix.
func NewDense(rows, cols int) *Dense {
	if rows < 0 || cols < 0 {
		panic(fmt.Sprintf("kernels: invalid matrix shape %dx%d", rows, cols))
	}
	return &Dense{Rows: rows, Cols: cols, Data: make([]float64, rows*cols)}
}

// At returns element (i,j).
func (m *Dense) At(i, j int) float64 { return m.Data[i*m.Cols+j] }

// Set assigns element (i,j).
func (m *Dense) Set(i, j int, v float64) { m.Data[i*m.Cols+j] = v }

// DGEMMFlops returns the floating-point operation count of an m×k by k×n
// matrix multiply (the quantity HPCC reports rates against).
func DGEMMFlops(m, k, n int) float64 { return 2 * float64(m) * float64(k) * float64(n) }

// GEMMNaive computes C += A*B with the textbook triple loop (ikj order for
// stride-1 inner access). It is the low-temporal-locality baseline for the
// blocked version.
func GEMMNaive(a, b, c *Dense) {
	checkGEMM(a, b, c)
	n := b.Cols
	k := a.Cols
	for i := 0; i < a.Rows; i++ {
		arow := a.Data[i*k : (i+1)*k]
		crow := c.Data[i*n : (i+1)*n]
		for kk := 0; kk < k; kk++ {
			aik := arow[kk]
			brow := b.Data[kk*n : (kk+1)*n]
			for j := 0; j < n; j++ {
				crow[j] += aik * brow[j]
			}
		}
	}
}

// gemmBlock is the cache-blocking tile edge; 64 doubles ≈ half an Opteron
// L1 way per operand.
const gemmBlock = 64

// GEMM computes C += A*B with cache blocking — the high-temporal-locality
// kernel of the HPCC taxonomy (§5.1): its working set is cache-resident,
// which is why DGEMM is nearly immune to sharing the memory controller
// between cores (Figure 5).
func GEMM(a, b, c *Dense) {
	checkGEMM(a, b, c)
	m, k, n := a.Rows, a.Cols, b.Cols
	for i0 := 0; i0 < m; i0 += gemmBlock {
		imax := min(i0+gemmBlock, m)
		for k0 := 0; k0 < k; k0 += gemmBlock {
			kmax := min(k0+gemmBlock, k)
			for j0 := 0; j0 < n; j0 += gemmBlock {
				jmax := min(j0+gemmBlock, n)
				for i := i0; i < imax; i++ {
					arow := a.Data[i*k : (i+1)*k]
					crow := c.Data[i*n : (i+1)*n]
					for kk := k0; kk < kmax; kk++ {
						aik := arow[kk]
						brow := b.Data[kk*n : (kk+1)*n]
						for j := j0; j < jmax; j++ {
							crow[j] += aik * brow[j]
						}
					}
				}
			}
		}
	}
}

func checkGEMM(a, b, c *Dense) {
	if a.Cols != b.Rows || c.Rows != a.Rows || c.Cols != b.Cols {
		panic(fmt.Sprintf("kernels: GEMM shape mismatch %dx%d * %dx%d -> %dx%d",
			a.Rows, a.Cols, b.Rows, b.Cols, c.Rows, c.Cols))
	}
}
