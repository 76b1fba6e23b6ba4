package tensor

// The reference matrix multiplies the blocked GEMM core is tested
// against: plain single-threaded loops, one per layout, every product
// added (a zero times ±Inf or NaN is NaN, as IEEE and the core have it),
// from +0, in ascending k per output element.

// naiveMatMulInto computes dst = A·B in i-k-j order.
func naiveMatMulInto[T Float](dst, a, b *TensorOf[T]) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: naiveMatMulInto shape mismatch")
	}
	ad, bd, cd := a.data, b.data, dst.data
	clear(cd)
	for i := 0; i < m; i++ {
		ci := cd[i*n : (i+1)*n]
		for l := 0; l < k; l++ {
			av := ad[i*k+l]
			for j, bv := range bd[l*n : (l+1)*n] {
				ci[j] += T(av * bv)
			}
		}
	}
}

// naiveMatMulTransAInto computes dst = Aᵀ·B, A stored k×m.
func naiveMatMulTransAInto[T Float](dst, a, b *TensorOf[T]) {
	k, m := a.Dim(0), a.Dim(1)
	n := b.Dim(1)
	if b.Dim(0) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: naiveMatMulTransAInto shape mismatch")
	}
	ad, bd, cd := a.data, b.data, dst.data
	clear(cd)
	for l := 0; l < k; l++ {
		brow := bd[l*n : (l+1)*n]
		for i, av := range ad[l*m : (l+1)*m] {
			ci := cd[i*n : (i+1)*n]
			for j, bv := range brow {
				ci[j] += T(av * bv)
			}
		}
	}
}

// naiveMatMulTransBInto computes dst = A·Bᵀ, B stored n×k: one dot
// product per output element.
func naiveMatMulTransBInto[T Float](dst, a, b *TensorOf[T]) {
	m, k := a.Dim(0), a.Dim(1)
	n := b.Dim(0)
	if b.Dim(1) != k || dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: naiveMatMulTransBInto shape mismatch")
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
