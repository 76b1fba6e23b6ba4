package tensor

// Matrix-multiply entry points, generic over the element type. All three
// layouts (A·B, Aᵀ·B, A·Bᵀ) and the fused-epilogue variants route through
// the blocked, packed GEMM core in gemm.go at every shape; the loop
// kernels the property tests hold it to live in naive_test.go.

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
