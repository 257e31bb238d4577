//go:build !amd64

package svm

// Off amd64 the packed kernels never run: asmKernelsSupported is false,
// so KernelsAuto resolves to the portable loops and these stubs are
// unreachable.

func asmKernelsSupported() bool { return false }

func accumGroup64(ord *int32, val *float64, n int, w float64, acc *float64) {
	panic("svm: packed kernel called without AVX-512 support")
}

func fusedRBFSumBoundPacked(coef, snGH, dots []float64, b0, slope float64) float64 {
	panic("svm: packed kernel called without AVX-512 support")
}
