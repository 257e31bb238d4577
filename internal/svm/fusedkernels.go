package svm

import "math"

// The dense per-model passes of the fused engine: every loop here runs
// over a model's contiguous SV ordinal range (coef/sn/dots slices of equal
// length), restructured so the compiler eliminates every bounds check in
// the inner loops — CI builds this package with -d=ssa/check_bce and fails
// if a check reappears in this file. Keep new hot dense loops here, and
// keep the up-front reslices that feed the prover.

// fusedKernelSum computes Σᵢ αᵢ·k(xᵢ,x) from accumulated dot products,
// kernel-specialized; Model.decisionIndexed runs this very loop on its
// per-model dots, so fused sums are bit-identical to that path as long as
// the dots are (one accumulator, ascending i — do not reorder or unroll
// this one).
func fusedKernelSum(k Kernel, coef, sn []float64, dots []float64, nx float64) float64 {
	coef = coef[:len(dots)]
	sn = sn[:len(dots)]
	var sum float64
	switch k.Kind {
	case KernelPoly:
		g, c0 := k.Gamma, k.Coef0
		if k.Degree == 3 { // LIBSVM's default degree, worth a closed form
			for i := range dots {
				b := g*dots[i] + c0
				sum += coef[i] * b * b * b
			}
		} else {
			for i := range dots {
				sum += coef[i] * ipow(g*dots[i]+c0, k.Degree)
			}
		}
	case KernelRBF:
		g := k.Gamma
		for i := range dots {
			d2 := sn[i] + nx - 2*dots[i]
			if d2 < 0 {
				d2 = 0
			}
			sum += coef[i] * math.Exp(-g*d2)
		}
	case KernelSigmoid:
		g, c0 := k.Gamma, k.Coef0
		for i := range dots {
			sum += coef[i] * math.Tanh(g*dots[i]+c0)
		}
	default: // linear models take the weight-vector path; kept for completeness
		for i := range dots {
			sum += coef[i] * dots[i]
		}
	}
	return sum
}

// fusedDotRange returns [dmin, dmax] ∋ 0 covering the accumulated dot
// products (0 is always included: untouched support vectors hold an
// exact zero).
func fusedDotRange(dots []float64) (dmin, dmax float64) {
	for _, d := range dots {
		if d < dmin {
			dmin = d
		} else if d > dmax {
			dmax = d
		}
	}
	return dmin, dmax
}

// The RBF screening bound replaces exp with a table lookup: rbfExpUB[k]
// upper-bounds exp(−z) for every z whose truncated index int(z·invH)
// lands on k. The table entry is exp(−(k−1)·h) — one whole step h of
// deliberate slack — so admissibility needs no rounding analysis at all:
// truncation error, the index conversion's own rounding, and the tiny
// negative z values float cancellation can produce (the exact loop clamps
// those to k(x,xᵢ) = 1; here entry 0 holds e^h ≥ 1) are each orders of
// magnitude below h. The last entry bounds every larger z: idx ≥ 255
// implies z ≥ 254·h. Cost per support vector: a multiply, an int
// conversion, a clamp, and a load — no division, no transcendental —
// which is what makes the bound pass cheaper than the max-dot scan it
// replaced.
const (
	rbfExpH    = 0.25
	rbfExpInvH = 1 / rbfExpH
)

var rbfExpUB = func() (t [256]float64) {
	for k := range t {
		t[k] = math.Exp(rbfExpH - float64(k)*rbfExpH)
	}
	return
}()

// fusedRBFSumBound bounds Σαᵢ·exp(−γ‖xᵢ−x‖²) from above per
// support vector via the rbfExpUB table. The table index γ·d²ᵢ/h is
// computed in strength-reduced form snGHᵢ + b0 − slope·dotᵢ, where
// snGH = γ·snᵢ/h comes precomputed from the index and b0 = γ·nx/h,
// slope = 2γ/h are per-window constants — algebraically equal to the
// exact loop's γ·(snᵢ + nx − 2·dotᵢ) scaled by 1/h, with every rounding
// difference absorbed by the table's whole-step slack. One accumulator
// sums the support vectors in ascending order, so the bound, and with it
// the screening effort, is the same on every CPU.
func fusedRBFSumBound(coef, snGH, dots []float64, b0, slope float64) float64 {
	coef = coef[:len(dots)]
	snGH = snGH[:len(dots)]
	var sum float64
	for i := range dots {
		k := int(snGH[i] + b0 - slope*dots[i])
		if k < 0 {
			k = 0
		} else if k > 255 {
			k = 255
		}
		// k ∈ [0,255] here, so &255 is the identity — it exists to hand
		// the bounds-check prover a range it accepts for the table index.
		sum += coef[i] * rbfExpUB[k&255]
	}
	return sum
}

// preScreenRBF is the dense pass of the pre-accumulate screen (see
// FusedIndex): for every model it reads the accumulated dot bound ub[i]
// (zeroing it for the next window), rejects the model when
// ‖x‖² − 2U clears preCrit[i] by the rounding margin, and otherwise marks
// it live and counts its support vectors. Models the screen never rejects
// carry preCrit = +Inf.
//
// The margin makes the rejection exact: the U and ‖x‖² − 2U computed here
// and the exact loop's own dot products and squared distances each carry
// at most (nnz+2) roundings, relative to ‖x‖² + 2U (every term of U is
// ≥ 0, so its sum has no cancellation) and, by Cauchy–Schwarz, to
// (max‖svᵢ‖ + ‖x‖)². slack is 2·(nnz+4)·preScreenEps — twice that count
// at twice the unit roundoff.
func preScreenRBF(ub, preCrit, maxNorm []float64, svCount []int32, live []bool, nx, normX, slack float64) (rejected, liveSVs int) {
	preCrit = preCrit[:len(ub)]
	maxNorm = maxNorm[:len(ub)]
	svCount = svCount[:len(ub)]
	live = live[:len(ub)]
	for i := range ub {
		u := ub[i]
		ub[i] = 0
		r := maxNorm[i] + normX
		if nx-2*u-slack*(nx+2*u+r*r) > preCrit[i] {
			live[i] = false
			rejected++
			continue
		}
		live[i] = true
		liveSVs += int(svCount[i])
	}
	return rejected, liveSVs
}
