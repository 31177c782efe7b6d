package kernels

import (
	"fmt"
	"math"
	"math/cmplx"
)

// FFTFlops is the operation count convention HPCC uses for an n-point
// complex FFT: 5·n·log2(n).
func FFTFlops(n int) float64 {
	return 5 * float64(n) * math.Log2(float64(n))
}

// FFT computes the in-place radix-2 decimation-in-time fast Fourier
// transform of x. len(x) must be a power of two. This is the
// high-temporal/low-spatial locality kernel of the HPCC taxonomy (§5.1):
// the butterflies reuse data heavily but stride across the array.
func FFT(x []complex128) {
	fftDir(x, -1)
}

// IFFT computes the inverse transform (including the 1/n scaling).
func IFFT(x []complex128) {
	fftDir(x, +1)
	n := float64(len(x))
	for i := range x {
		x[i] /= complex(n, 0)
	}
}

func fftDir(x []complex128, sign float64) {
	n := len(x)
	if n == 0 {
		return
	}
	if n&(n-1) != 0 {
		panic(fmt.Sprintf("kernels: FFT length %d is not a power of two", n))
	}
	// Bit-reversal permutation.
	for i, j := 1, 0; i < n; i++ {
		bit := n >> 1
		for ; j&bit != 0; bit >>= 1 {
			j ^= bit
		}
		j ^= bit
		if i < j {
			x[i], x[j] = x[j], x[i]
		}
	}
	// Cooley–Tukey butterflies.
	for length := 2; length <= n; length <<= 1 {
		ang := sign * 2 * math.Pi / float64(length)
		wl := cmplx.Exp(complex(0, ang))
		for i := 0; i < n; i += length {
			w := complex(1, 0)
			half := length >> 1
			for j := 0; j < half; j++ {
				u := x[i+j]
				v := x[i+j+half] * w
				x[i+j] = u + v
				x[i+j+half] = u - v
				w *= wl
			}
		}
	}
}

// DFTSlow is the O(n²) reference transform used to validate FFT.
func DFTSlow(x []complex128) []complex128 {
	n := len(x)
	out := make([]complex128, n)
	for k := 0; k < n; k++ {
		var sum complex128
		for t := 0; t < n; t++ {
			ang := -2 * math.Pi * float64(k) * float64(t) / float64(n)
			sum += x[t] * cmplx.Exp(complex(0, ang))
		}
		out[k] = sum
	}
	return out
}
