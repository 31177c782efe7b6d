package kernels

// LUFlops is the HPL operation-count convention for an n×n factorise+solve:
// 2n³/3 + 3n²/2.
func LUFlops(n int) float64 {
	fn := float64(n)
	return 2*fn*fn*fn/3 + 3*fn*fn/2
}
