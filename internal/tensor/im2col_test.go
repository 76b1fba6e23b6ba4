package tensor

// Materialized im2col lowering: the reference oracle for the pack-free
// convolution kernels (convgemm.go). Nothing outside the tests builds
// these matrices — the blocked GEMM reads the same patch elements in
// place from the input tensor — and the conformance table
// (conform_test.go) holds the kernels to this lowering bit for bit.

// im2col lowers a batch of images (N, C, H, W) into a matrix of patch
// columns so that a convolution with kernel (KH, KW), stride and padding
// becomes a single matrix multiply. The result has shape
// (N*OH*OW, C*KH*KW) where OH, OW are the output spatial dimensions.
func im2col[T Float](x *TensorOf[T], kh, kw, stride, pad int) *TensorOf[T] {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	cols := NewOf[T](n*oh*ow, c*kh*kw)
	im2colInto(cols, x, kh, kw, stride, pad)
	return cols
}

// im2colInto is im2col writing into a preallocated (N*OH*OW, C*KH*KW)
// matrix, zeroing it first (padded regions must read as zero).
func im2colInto[T Float](cols, x *TensorOf[T], kh, kw, stride, pad int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	if cols.Dim(0) != n*oh*ow || cols.Dim(1) != c*kh*kw {
		panic("tensor: im2colInto shape mismatch")
	}
	cols.Zero()
	xd, cd := x.data, cols.data
	rowLen := c * kh * kw
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := ((img*oh+oy)*ow + ox) * rowLen
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						dst := row + (ch*kh+ky)*kw
						if iy < 0 || iy >= h {
							continue // padded region stays zero
						}
						srcRow := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							cd[dst+kx] = xd[srcRow+ix]
						}
					}
				}
			}
		}
	}
}

// col2imInto is the adjoint of im2col: it scatters patch-column
// gradients back into a preallocated image gradient of shape (N, C, H,
// W), zeroing it first and accumulating overlaps. The scatter order —
// ascending patch row, then ascending (channel, ky, kx) within the row —
// is the accumulation order the implicit-GEMM input-gradient kernel
// reproduces chunk by chunk (see ConvGradInputInto).
func col2imInto[T Float](x, cols *TensorOf[T], kh, kw, stride, pad int) {
	n, c, h, w := x.Dim(0), x.Dim(1), x.Dim(2), x.Dim(3)
	oh := (h+2*pad-kh)/stride + 1
	ow := (w+2*pad-kw)/stride + 1
	rowLen := c * kh * kw
	if cols.Dim(0) != n*oh*ow || cols.Dim(1) != rowLen {
		panic("tensor: col2imInto shape mismatch")
	}
	x.Zero()
	xd, cd := x.data, cols.data
	for img := 0; img < n; img++ {
		base := img * c * h * w
		for oy := 0; oy < oh; oy++ {
			for ox := 0; ox < ow; ox++ {
				row := ((img*oh+oy)*ow + ox) * rowLen
				iy0 := oy*stride - pad
				ix0 := ox*stride - pad
				for ch := 0; ch < c; ch++ {
					chBase := base + ch*h*w
					for ky := 0; ky < kh; ky++ {
						iy := iy0 + ky
						if iy < 0 || iy >= h {
							continue
						}
						src := row + (ch*kh+ky)*kw
						dstRow := chBase + iy*w
						for kx := 0; kx < kw; kx++ {
							ix := ix0 + kx
							if ix < 0 || ix >= w {
								continue
							}
							xd[dstRow+ix] += cd[src+kx]
						}
					}
				}
			}
		}
	}
}
