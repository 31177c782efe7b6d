package kernels

// S3D's discretisation (§6.4) uses eighth-order centred first derivatives
// (a nine-point stencil) and a tenth-order low-pass filter (an eleven-point
// stencil). The simulator runs neither: their one-sided widths set the
// ghost-zone depth, and so the halo-exchange sizes, of the S3D proxy.

// Deriv8Width is the one-sided width of the eighth-order derivative
// stencil (nine points total → ghost zones of four planes).
const Deriv8Width = 4

// Filter10Width is the one-sided width of the tenth-order filter stencil
// (eleven points total → ghost zones of five planes).
const Filter10Width = 5

// HaloBytesPerFace returns the ghost-exchange payload for one face of a
// decomposed field: width ghost planes of the face area, 8 bytes per
// value, nVars field variables.
func HaloBytesPerFace(n1, n2, width, nVars int) int64 {
	return int64(n1) * int64(n2) * int64(width) * int64(nVars) * 8
}
