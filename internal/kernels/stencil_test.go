package kernels

import "testing"

func TestHaloBytesPerFace(t *testing.T) {
	// 50x50 face, 4 ghost planes, 12 variables: S3D-like halo.
	if got := HaloBytesPerFace(50, 50, 4, 12); got != 50*50*4*12*8 {
		t.Fatalf("halo bytes = %d", got)
	}
}
