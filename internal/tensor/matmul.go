package tensor

// Matrix-multiply entry points, generic over the element type. All three
// layouts (A·B, Aᵀ·B, A·Bᵀ) and the fused-epilogue variants route through
// the blocked, packed GEMM core in gemm.go; the original PR-1 loop
// kernels are retained below as unexported, single-threaded reference
// implementations — they serve as the small-shape fast path and as the
// ground truth for the blocked kernel's property tests.

// MatMulInto computes dst = A·B, overwriting dst. dst must be m×n.
//
// fedlint:hotpath
// fedlint:deterministic
func MatMulInto[T Float](dst, a, b *TensorOf[T]) {
	gemm(dst, a, b, false, false, epi[T]{})
}

// MatMulTransAInto computes dst = Aᵀ·B, overwriting dst. dst must be m×n.
//
// fedlint:hotpath
// fedlint:deterministic
func MatMulTransAInto[T Float](dst, a, b *TensorOf[T]) {
	gemm(dst, a, b, true, false, epi[T]{})
}

// MatMulTransBInto computes dst = A·Bᵀ, overwriting dst. dst must be m×n.
//
// fedlint:hotpath
// fedlint:deterministic
func MatMulTransBInto[T Float](dst, a, b *TensorOf[T]) {
	gemm(dst, a, b, false, true, epi[T]{})
}

// MatMulTransBBiasInto computes dst = A·Bᵀ + bias with the bias (length n)
// broadcast across rows, fused into the kernel epilogue — the forward pass
// of a dense layer in one call, with no separate zeroing or bias loop
// over dst.
//
// fedlint:hotpath
// fedlint:deterministic
func MatMulTransBBiasInto[T Float](dst, a, b, bias *TensorOf[T]) {
	gemm(dst, a, b, false, true, epi[T]{bias: bias.data})
}

// MatMulTransBBiasReLUInto computes dst = max(0, A·Bᵀ + bias) — the fused
// dense+bias+ReLU forward. An element of dst is positive exactly where
// its pre-activation was, which is all ReLU's backward pass needs.
//
// fedlint:hotpath
// fedlint:deterministic
func MatMulTransBBiasReLUInto[T Float](dst, a, b, bias *TensorOf[T]) {
	gemm(dst, a, b, false, true, epi[T]{bias: bias.data, relu: true})
}

// naiveMatMulInto is the PR-1 i-k-j kernel (single-threaded), kept as the
// reference implementation and the small-shape fast path.
func naiveMatMulInto[T Float](dst, a, b *TensorOf[T]) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: MatMulInto shape mismatch")
	}
	ad, bd, cd := a.data, b.data, dst.data
	for i := range cd {
		cd[i] = 0
	}
	for i := 0; i < m; i++ {
		ci := cd[i*n : (i+1)*n]
		for l := 0; l < k; l++ {
			av := ad[i*k+l]
			if av == 0 { //fedlint:allow floateq — exact-zero sparsity sentinel: skipping a true 0 never changes the sum
				continue
			}
			bi := bd[l*n : (l+1)*n]
			for j, bv := range bi {
				ci[j] += T(av * bv)
			}
		}
	}
}

// naiveMatMulTransAInto is the PR-1 Aᵀ·B kernel (single-threaded), kept as
// the reference implementation and the small-shape fast path.
func naiveMatMulTransAInto[T Float](dst, a, b *TensorOf[T]) {
	k, m := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: MatMulTransAInto shape mismatch")
	}
	ad, bd, cd := a.data, b.data, dst.data
	for i := range cd {
		cd[i] = 0
	}
	for l := 0; l < k; l++ {
		arow := ad[l*m : (l+1)*m]
		brow := bd[l*n : (l+1)*n]
		for i, av := range arow {
			if av == 0 { //fedlint:allow floateq — exact-zero sparsity sentinel: skipping a true 0 never changes the sum
				continue
			}
			ci := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				ci[j] += T(av * bv)
			}
		}
	}
}

// naiveMatMulTransBInto is the PR-1 A·Bᵀ kernel (single-threaded), kept as
// the reference implementation and the small-shape fast path.
func naiveMatMulTransBInto[T Float](dst, a, b *TensorOf[T]) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	if b.Dim(1) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: MatMulTransBInto shape mismatch")
	}
	ad, bd, cd := a.data, b.data, dst.data
	for i := 0; i < m; i++ {
		ai := ad[i*k : (i+1)*k]
		ci := cd[i*n : (i+1)*n]
		for j := 0; j < n; j++ {
			bj := bd[j*k : (j+1)*k]
			var s T
			for l, av := range ai {
				s += T(av * bj[l])
			}
			ci[j] = s
		}
	}
}
