//go:build !amd64

package svm

// detectCPUFeatures reports no SIMD capabilities off amd64, where the
// portable kernels run.
func detectCPUFeatures() []string { return nil }
