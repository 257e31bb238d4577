package svm

// CPUID/XGETBV intrinsics (cpu_amd64.s).
func cpuid(leaf, sub uint32) (eax, ebx, ecx, edx uint32)
func xgetbv() (eax, edx uint32)

// detectCPUFeatures probes the SIMD capabilities relevant to the scoring
// kernels: "avx512f" selects the packed kernels, the rest is logged.
// Vector-register features are only reported when the OS has enabled the
// corresponding state saving (OSXSAVE + XCR0), per the Intel manual's
// detection protocol. Sorted, stable output for logs.
func detectCPUFeatures() []string {
	maxLeaf, _, _, _ := cpuid(0, 0)
	if maxLeaf < 1 {
		return nil
	}
	_, _, c1, d1 := cpuid(1, 0)
	var feats []string
	avxOS, avx512OS := false, false
	if c1&(1<<27) != 0 { // OSXSAVE
		lo, _ := xgetbv()
		avxOS = lo&0x6 == 0x6      // XMM+YMM state
		avx512OS = lo&0xe6 == 0xe6 // + opmask and ZMM state
	}
	if avxOS && c1&(1<<28) != 0 {
		feats = append(feats, "avx")
	}
	if maxLeaf >= 7 {
		_, b7, _, _ := cpuid(7, 0)
		if avxOS && b7&(1<<5) != 0 {
			feats = append(feats, "avx2")
		}
		if avx512OS && b7&(1<<16) != 0 {
			feats = append(feats, "avx512f")
		}
	}
	if avxOS && c1&(1<<12) != 0 {
		feats = append(feats, "fma")
	}
	if d1&(1<<26) != 0 {
		feats = append(feats, "sse2")
	}
	return feats
}
