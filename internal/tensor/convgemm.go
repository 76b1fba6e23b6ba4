package tensor

import "sync"

// Implicit-GEMM convolution. The im2col lowering turns a convolution
// into three GEMMs, but materializing the (N·OH·OW)×(C·KH·KW) patch
// matrix was the largest steady-state buffer in training (5 MB for
// LeNet conv2 at batch 20 — bigger than the model). The kernels here
// run the exact same blocked GEMMs against *virtual* im2col operands:
// the packing stage (which already copies every operand into
// micro-panels) synthesizes patch elements straight from the (N,C,H,W)
// input, so the patch matrix never exists in memory. The other operand
// and the output are matViews, so activations and gradients are read and
// written in their own (N,C,H,W) layout with no permute pass either.
//
// Bit-compatibility with the materialized path is by construction, and
// property tests in conv_test.go pin it: the virtual packers produce the
// same panel contents as packA/packB over im2col output (padding reads
// as zero either way), the blocked core is shared, and the small-shape
// naive paths below replicate the exact loop order of the naive matmul
// kernels the old path dispatched to at the same (unchanged) volume
// cutoffs. Skipping an out-of-bounds term instead of adding a
// materialized 0·w is bit-safe: a +0-initialized accumulator never
// becomes -0 under round-to-nearest, so the ±0 contribution of a padded
// product cannot change any sum.

// ConvOutSize returns the output spatial size for input size in, kernel k,
// stride and padding.
func ConvOutSize(in, k, stride, pad int) int {
	return (in+2*pad-k)/stride + 1
}

// convGeom is the geometry of one convolution: input (n,c,h,w), kernel
// (kh,kw), stride, pad, and the derived output size (oh,ow). It defines
// the virtual im2col matrix of shape (n·oh·ow, c·kh·kw) whose element
// (row=(img,oy,ox), col=(ch,ky,kx)) reads x[img, ch, oy·stride-pad+ky,
// ox·stride-pad+kx], or zero out of bounds.
type convGeom struct {
	n, c, h, w  int
	kh, kw      int
	stride, pad int
	oh, ow      int
}

func makeConvGeom(x []int, kh, kw, stride, pad int) convGeom {
	return convGeom{
		n: x[0], c: x[1], h: x[2], w: x[3],
		kh: kh, kw: kw, stride: stride, pad: pad,
		oh: ConvOutSize(x[2], kh, stride, pad),
		ow: ConvOutSize(x[3], kw, stride, pad),
	}
}

// rows and cols of the virtual im2col matrix.
func (g *convGeom) rows() int { return g.n * g.oh * g.ow }
func (g *convGeom) cols() int { return g.c * g.kh * g.kw }

// The two virtual packers share one shape. A micro-panel is ld lanes
// wide (mr rows of A, nr columns of B) and kc deep; along the lanes the
// im2col matrix walks output x (A) or kernel x (B), along the depth the
// other one. Lanes that share an input row — A rows of one output row, B
// columns of one kernel row — form a lane run, depth steps that share it
// — taps of one kernel row, positions of one output row — a depth run,
// and the block (depth run × lane run) reads one sliding window of one
// input row: element (u, v) is row[off + u·su + v·sv], or zero where that
// index leaves the row. packWindow copies such a block with one bounds
// decision per depth step instead of index arithmetic and a bounds test
// per element; both packers are loops of run bookkeeping around it.
//
// What is written for padding is exactly what the materialized matrix
// held: 0 for every tap outside the input, and 0 for the lanes past a
// ragged m or n tail. (Products with those zeros are ±0 and cannot move
// a sum that started at +0 — the same argument that lets the naive paths
// skip the taps outright.)

// packWindow fills dst[u·ld+v] for u < nu, v < nv from the sliding
// window described above. A nil row (the whole input row is padding)
// zero-fills the block. With adjacent lanes adjacent in the row (sv = 1:
// every B panel, and A panels of stride-1 convolutions) a depth step
// whose lane run lies inside the row is a straight copy, unrolled at the
// register-tile widths; clipped steps, and strided lanes, test each
// element.
//
// fedlint:hotpath
func packWindow[T Float](dst []T, ld int, row []T, off, su, sv, nu, nv int) {
	for u := 0; u < nu; u++ {
		d := dst[u*ld:][:nv]
		i0 := off + u*su
		if sv == 1 && i0 >= 0 && i0+nv <= len(row) {
			s := row[i0:][:nv]
			switch nv {
			case 4:
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
			case 8:
				d[0], d[1], d[2], d[3] = s[0], s[1], s[2], s[3]
				d[4], d[5], d[6], d[7] = s[4], s[5], s[6], s[7]
			default:
				for v := range d {
					d[v] = s[v]
				}
			}
			continue
		}
		for v := range d {
			var x T
			if i := i0 + v*sv; uint(i) < uint(len(row)) {
				x = row[i]
			}
			d[v] = x
		}
	}
}

// packAConv packs the mc×kc block at (i0, p0) of the virtual im2col
// matrix as column-major micro-panels of mr rows — the implicit
// counterpart of packA. Lanes are output positions (a lane run is the
// part of one output row inside the micro-panel, advancing stride input
// columns per lane), depth is the patch coordinate (ch, ky, kx) (a depth
// run is the part of one kernel row inside the k-panel, advancing one
// input column per tap).
//
// fedlint:hotpath
func packAConv[T Float](ap, xd []T, g *convGeom, i0, p0, mc, kc, mr int) {
	khw := g.kh * g.kw
	ohw := g.oh * g.ow
	hw := g.h * g.w
	ch0 := p0 / khw
	ky0 := (p0 - ch0*khw) / g.kw
	kx0 := p0 - ch0*khw - ky0*g.kw
	for ir := 0; ir < mc; ir += mr {
		panel := ap[(ir/mr)*mr*kc:][:mr*kc]
		rows := min(mr, mc-ir)
		i := i0 + ir
		img := i / ohw
		oy := (i - img*ohw) / g.ow
		ox := i - img*ohw - oy*g.ow
		for r := 0; r < rows; {
			n := min(rows-r, g.ow-ox)
			iy0, ix0 := oy*g.stride-g.pad, ox*g.stride-g.pad
			ch, ky, kx := ch0, ky0, kx0
			for l := 0; l < kc; {
				taps := min(g.kw-kx, kc-l)
				var row []T
				if iy := iy0 + ky; uint(iy) < uint(g.h) {
					row = xd[(img*g.c+ch)*hw+iy*g.w:][:g.w]
				}
				packWindow(panel[l*mr+r:], mr, row, ix0+kx, 1, g.stride, taps, n)
				l += taps
				kx = 0
				if ky++; ky == g.kh {
					ky = 0
					ch++
				}
			}
			r += n
			ox = 0
			if oy++; oy == g.oh {
				oy = 0
				img++
			}
		}
		zeroLanes(panel, mr, rows)
	}
}

// packBConv packs the kc×nc block at (p0, j0) of the virtual im2col
// matrix viewed as the B operand (row = position, column = patch
// coordinate) as row-major micro-panels of nr columns — the implicit
// counterpart of packB, used by the weight-gradient GEMM. Lanes are
// patch coordinates (a lane run is the part of one kernel row inside the
// micro-panel, one input column per lane), depth is the position
// (img, oy, ox) (a depth run is the part of one output row inside the
// k-panel, stride input columns per position).
//
// fedlint:hotpath
func packBConv[T Float](bp, xd []T, g *convGeom, p0, j0, kc, nc, nr int) {
	khw := g.kh * g.kw
	ohw := g.oh * g.ow
	hw := g.h * g.w
	img0 := p0 / ohw
	oy0 := (p0 - img0*ohw) / g.ow
	ox0 := p0 - img0*ohw - oy0*g.ow
	for jr := 0; jr < nc; jr += nr {
		panel := bp[(jr/nr)*nr*kc:][:nr*kc]
		cols := min(nr, nc-jr)
		j := j0 + jr
		ch := j / khw
		ky := (j - ch*khw) / g.kw
		kx := j - ch*khw - ky*g.kw
		for c := 0; c < cols; {
			n := min(cols-c, g.kw-kx)
			img, oy, ox := img0, oy0, ox0
			for l := 0; l < kc; {
				cnt := min(g.ow-ox, kc-l)
				var row []T
				if iy := oy*g.stride - g.pad + ky; uint(iy) < uint(g.h) {
					row = xd[(img*g.c+ch)*hw+iy*g.w:][:g.w]
				}
				packWindow(panel[l*nr+c:], nr, row, ox*g.stride-g.pad+kx, g.stride, 1, cnt, n)
				l += cnt
				ox = 0
				if oy++; oy == g.oh {
					oy = 0
					img++
				}
			}
			c += n
			kx = 0
			if ky++; ky == g.kh {
				ky = 0
				ch++
			}
		}
		zeroLanes(panel, nr, cols)
	}
}

// convView interprets t as the rows×nOut matrix of a convolution's
// output side: a rank-2 tensor is that matrix row-major (the matmul
// layout), a rank-4 tensor is (N, OutC, OH, OW) read through its
// position-by-channel view.
func convView[T Float](t *TensorOf[T], g *convGeom, nOut int, what string) matView[T] {
	if t.Rank() == 4 {
		if t.Dim(0) != g.n || t.Dim(1) != nOut || t.Dim(2) != g.oh || t.Dim(3) != g.ow {
			panic("tensor: " + what + " shape mismatch")
		}
		return matView[T]{d: t.data, sp: g.oh * g.ow, ch: nOut}
	}
	if t.Rank() != 2 || t.Dim(0) != g.rows() || t.Dim(1) != nOut {
		panic("tensor: " + what + " shape mismatch")
	}
	return matView[T]{d: t.data, ld: nOut}
}

// ConvForwardInto computes the convolution forward pass
// y = im2col(x)·Wᵀ + bias without materializing im2col(x). x is
// (N,C,H,W), w (OutC, C·KH·KW), bias length OutC; y is either the
// (N, OutC, OH, OW) activation or the (N·OH·OW)×OutC matmul-layout
// matrix, told apart by rank.
//
// fedlint:hotpath
func ConvForwardInto[T Float](y, x, w, bias *TensorOf[T], kh, kw, stride, pad int) {
	convForward(y, x, w, epi[T]{bias: bias.data}, kh, kw, stride, pad)
}

// ConvForwardReLUInto is ConvForwardInto followed by ReLU, fused into the
// same kernel epilogue. A non-nil mask (at least y.Len() entries)
// receives, at each output element's own offset, whether it stayed
// positive.
//
// fedlint:hotpath
func ConvForwardReLUInto[T Float](y, x, w, bias *TensorOf[T], mask []bool, kh, kw, stride, pad int) {
	if mask != nil && len(mask) < y.Len() {
		panic("tensor: ConvForwardReLUInto mask too short")
	}
	convForward(y, x, w, epi[T]{bias: bias.data, relu: true, mask: mask}, kh, kw, stride, pad)
}

func convForward[T Float](y, x, w *TensorOf[T], e epi[T], kh, kw, stride, pad int) {
	g := makeConvGeom(x.shape, kh, kw, stride, pad)
	m, kdim := g.rows(), g.cols()
	nOut := w.Dim(0)
	if w.Dim(1) != kdim {
		panic("tensor: ConvForwardInto weight shape mismatch")
	}
	if len(e.bias) != nOut {
		panic("tensor: ConvForwardInto bias length mismatch")
	}
	c := convView(y, &g, nOut, "ConvForwardInto output")
	if m == 0 || nOut == 0 {
		return
	}
	if m*nOut*kdim <= gemmSmallCutoff {
		naiveConvForward(&c, x.data, w.data, &g, nOut)
		applyEpi(&c, m, nOut, &e)
		return
	}
	gemmBlockedOps(c,
		packSrc[T]{d: x.data, kind: srcIm2col, geom: g},
		packSrc[T]{d: w.data, rs: 1, cs: kdim},
		m, nOut, kdim, e)
}

// naiveConvForward replicates naiveMatMulTransBInto over the virtual
// im2col rows: per output element one dot product in ascending
// (ch, ky, kx) order, out-of-bounds taps skipped.
func naiveConvForward[T Float](c *matView[T], xd, wd []T, g *convGeom, nOut int) {
	kdim := g.cols()
	hw := g.h * g.w
	i := 0
	for img := 0; img < g.n; img++ {
		base := img * g.c * hw
		for oy := 0; oy < g.oh; oy++ {
			for ox := 0; ox < g.ow; ox++ {
				iy0 := oy*g.stride - g.pad
				ix0 := ox*g.stride - g.pad
				for j := 0; j < nOut; j++ {
					wj := wd[j*kdim : (j+1)*kdim]
					var s T
					idx := 0
					for ch := 0; ch < g.c; ch++ {
						chBase := base + ch*hw
						for ky := 0; ky < g.kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= g.h {
								idx += g.kw
								continue
							}
							srcRow := chBase + iy*g.w
							for kx := 0; kx < g.kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= g.w {
									idx++
									continue
								}
								s += xd[srcRow+ix] * wj[idx]
								idx++
							}
						}
					}
					c.d[c.off(i, j)] = s
				}
				i++
			}
		}
	}
}

// ConvGradWeightsInto computes the weight gradient dw = gmᵀ·im2col(x)
// without materializing im2col(x). dw must be (OutC, C·KH·KW) and is
// fully overwritten; gm is the output gradient, either (N, OutC, OH, OW)
// or the (N·OH·OW)×OutC matmul-layout matrix, told apart by rank.
//
// fedlint:hotpath
func ConvGradWeightsInto[T Float](dw, gm, x *TensorOf[T], kh, kw, stride, pad int) {
	g := makeConvGeom(x.shape, kh, kw, stride, pad)
	pos, kdim := g.rows(), g.cols()
	nOut := dw.Dim(0)
	if dw.Dim(1) != kdim {
		panic("tensor: ConvGradWeightsInto output shape mismatch")
	}
	gv := convView(gm, &g, nOut, "ConvGradWeightsInto gradient")
	if nOut == 0 || kdim == 0 {
		return
	}
	if pos == 0 {
		dw.Zero()
		return
	}
	if nOut*kdim*pos <= gemmSmallCutoff {
		naiveConvDW(dw.data, &gv, x.data, &g, nOut)
		return
	}
	gemmBlockedOps(matView[T]{d: dw.data, ld: kdim},
		gv.asA(true, 0),
		packSrc[T]{d: x.data, kind: srcIm2col, geom: g},
		nOut, kdim, pos, epi[T]{})
}

// naiveConvDW replicates naiveMatMulTransAInto over the virtual im2col
// rows: positions outermost (ascending — the k reduction), the usual
// exact-zero skip on the gradient value, patch taps ascending within.
func naiveConvDW[T Float](dwd []T, gv *matView[T], xd []T, g *convGeom, nOut int) {
	kdim := g.cols()
	hw := g.h * g.w
	for i := range dwd {
		dwd[i] = 0
	}
	l := 0
	for img := 0; img < g.n; img++ {
		base := img * g.c * hw
		for oy := 0; oy < g.oh; oy++ {
			for ox := 0; ox < g.ow; ox++ {
				iy0 := oy*g.stride - g.pad
				ix0 := ox*g.stride - g.pad
				for i := 0; i < nOut; i++ {
					av := gv.d[gv.off(l, i)]
					if av == 0 { //fedlint:allow floateq — exact-zero sparsity sentinel: skipping a true 0 never changes the sum
						continue
					}
					ci := dwd[i*kdim : (i+1)*kdim]
					idx := 0
					for ch := 0; ch < g.c; ch++ {
						chBase := base + ch*hw
						for ky := 0; ky < g.kh; ky++ {
							iy := iy0 + ky
							if iy < 0 || iy >= g.h {
								idx += g.kw
								continue
							}
							srcRow := chBase + iy*g.w
							for kx := 0; kx < g.kw; kx++ {
								ix := ix0 + kx
								if ix < 0 || ix >= g.w {
									idx++
									continue
								}
								ci[idx] += av * xd[srcRow+ix]
								idx++
							}
						}
					}
				}
				l++
			}
		}
	}
}

// convChunkElems bounds the pooled scratch for the input-gradient pass:
// the virtual patch-gradient matrix is computed and scattered in row
// chunks of at most this many elements (128 KB at f64), replacing the
// full materialized dcols buffer. Chunk boundaries cannot affect bits:
// every chunk element is one complete ascending-k dot product, and the
// scatter runs in the exact col2imInto order across chunks.
const convChunkElems = 1 << 14

// convScratch is the pooled chunk buffer for ConvGradInputInto, grown to
// the largest chunk a geometry needs and reused thereafter.
type convScratch[T Float] struct{ buf []T }

var convPool64 = sync.Pool{New: func() any { return &convScratch[float64]{} }}
var convPool32 = sync.Pool{New: func() any { return &convScratch[float32]{} }}

func convScratchPool[T Float]() *sync.Pool {
	if isF32[T]() {
		return &convPool32
	}
	return &convPool64
}

// ConvGradInputInto computes the input gradient dx = col2im(gm·W)
// without materializing the (N·OH·OW)×(C·KH·KW) patch-gradient matrix:
// row chunks of gm·W are computed into a bounded pooled buffer and
// scattered immediately, in the same global accumulation order as the
// materialized col2im. dx must be (N,C,H,W) and is fully overwritten; gm
// is the output gradient in either layout (see ConvGradWeightsInto).
//
// fedlint:hotpath
func ConvGradInputInto[T Float](dx, gm, w *TensorOf[T], kh, kw, stride, pad int) {
	g := makeConvGeom(dx.shape, kh, kw, stride, pad)
	pos, kdim := g.rows(), g.cols()
	nOut := w.Dim(0)
	if w.Dim(1) != kdim {
		panic("tensor: ConvGradInputInto weight shape mismatch")
	}
	gv := convView(gm, &g, nOut, "ConvGradInputInto gradient")
	dx.Zero()
	if pos == 0 || kdim == 0 || nOut == 0 {
		return
	}
	chunk := max(1, convChunkElems/kdim)
	pool := convScratchPool[T]()
	s := pool.Get().(*convScratch[T])
	need := min(chunk, pos) * kdim
	if cap(s.buf) < need {
		s.buf = make([]T, need) //fedlint:allow hotalloc — grows once per conv geometry, pooled and reused thereafter
	}
	buf := s.buf[:need]
	wd, dxd := w.data, dx.data
	for r0 := 0; r0 < pos; r0 += chunk {
		rows := min(chunk, pos-r0)
		cbuf := buf[:rows*kdim]
		if rows*kdim*nOut <= gemmSmallCutoff {
			naiveGradRows(cbuf, &gv, wd, r0, rows, kdim, nOut)
		} else {
			gemmBlockedOps(matView[T]{d: cbuf, ld: kdim},
				gv.asA(false, r0),
				packSrc[T]{d: wd, rs: kdim, cs: 1},
				rows, kdim, nOut, epi[T]{})
		}
		convScatterChunk(dxd, cbuf, &g, r0, rows)
	}
	pool.Put(s)
}

// naiveGradRows is naiveMatMulInto for rows [r0, r0+m) of the gradient
// view: C(m×n) = G(m×k)·B(k×n) with the exact-zero skip, i-k-j order.
func naiveGradRows[T Float](cd []T, gv *matView[T], bd []T, r0, m, n, k int) {
	for i := range cd[:m*n] {
		cd[i] = 0
	}
	for i := 0; i < m; i++ {
		ci := cd[i*n : (i+1)*n]
		for l := 0; l < k; l++ {
			av := gv.d[gv.off(r0+i, l)]
			if av == 0 { //fedlint:allow floateq — exact-zero sparsity sentinel: skipping a true 0 never changes the sum
				continue
			}
			bi := bd[l*n : (l+1)*n]
			for j, bv := range bi {
				ci[j] += av * bv
			}
		}
	}
}

// convScatterChunk accumulates rows [r0, r0+rows) of the virtual
// patch-gradient matrix (held in buf) into dx, in col2imInto's order:
// ascending row, then ascending (ch, ky, kx), skipping padding taps. The
// in-bounds part of a row's window is one box — kernel rows [ky0, ky1),
// taps [kx0, kx1) — found once per row, so the inner loop is a straight
// run of adds along one input row.
//
// fedlint:hotpath
func convScatterChunk[T Float](dxd, buf []T, g *convGeom, r0, rows int) {
	khw := g.kh * g.kw
	ohw := g.oh * g.ow
	hw := g.h * g.w
	kdim := g.c * khw
	img := r0 / ohw
	oy := (r0 - img*ohw) / g.ow
	ox := r0 - img*ohw - oy*g.ow
	for r := 0; r < rows; r++ {
		iy0 := oy*g.stride - g.pad
		ix0 := ox*g.stride - g.pad
		ky0, ky1 := max(0, -iy0), min(g.kh, g.h-iy0)
		kx0, kx1 := max(0, -ix0), min(g.kw, g.w-ix0)
		if kx0 < kx1 {
			for ch := 0; ch < g.c; ch++ {
				for ky := ky0; ky < ky1; ky++ {
					src := buf[r*kdim+ch*khw+ky*g.kw+kx0:][:kx1-kx0]
					dst := dxd[(img*g.c+ch)*hw+(iy0+ky)*g.w+ix0+kx0:][:kx1-kx0]
					for kx, v := range src {
						dst[kx] += v
					}
				}
			}
		}
		if ox++; ox == g.ow {
			ox = 0
			if oy++; oy == g.oh {
				oy = 0
				img++
			}
		}
	}
}
