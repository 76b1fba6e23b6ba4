package tensor

import "sync"

// Pack-free convolution. The im2col lowering turns a convolution into
// three GEMMs over the (N·OH·OW)×(C·KH·KW) patch matrix; nothing here
// ever builds that matrix, or even a packed panel of it. Once the input
// carries its zero border, patch element (position, tap) sits at
//
//	x[posOff(img, oy, ox) + tapOff(ch, ky, kx)]
//
// — a separable address — so the forward and weight-gradient GEMMs hand
// the blocked core (gemm.go) two small offset tables and its indirect
// micro-kernel reads the input in place: positions are the rows and taps
// the depth for y = im2col·Wᵀ, taps the rows and positions the depth for
// dWᵀ = im2colᵀ·g. Only the small operand (W, g) is packed. A padded
// layer copies its input once per call into a pooled zero-bordered
// buffer; an unpadded one is read where it lies. The other operand and
// the output are matViews, so activations and gradients are read and
// written in their own (N,C,H,W) layout with no permute pass either.
// The input gradient scatters instead of gathering and keeps its chunked
// gm·W GEMM + col2im-ordered scatter.
//
// Bit-compatibility with the materialized path is by construction, and
// property tests in conv_test.go pin it against the im2col oracle: the
// indirect kernels run the packed kernels' instruction schedule on the
// same values (a border element reads +0, exactly what im2col stores for
// a padding tap; a·b and b·a round alike, which is all the operand swap
// of dW changes), and the KC panels and the merge are the shared core's.
// Every shape takes that one path: a padding tap is a product like any
// other, so 0·±Inf is NaN here exactly as it is in the oracle.

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

// convScratch is the pooled per-call workspace of the convolution
// kernels, grown to the largest geometry seen and reused thereafter: the
// zero-bordered input copy and offset tables of the forward and
// weight-gradient passes, the chunk buffer of ConvGradInputInto.
type convScratch[T Float] struct {
	buf  []T
	offs []int
}

var convPool64 = sync.Pool{New: func() any { return &convScratch[float64]{} }}
var convPool32 = sync.Pool{New: func() any { return &convScratch[float32]{} }}

func convScratchPool[T Float]() *sync.Pool {
	if isF32[T]() {
		return &convPool32
	}
	return &convPool64
}

// grow returns s.buf resized to n elements, contents unspecified.
func (s *convScratch[T]) grow(n int) []T {
	if cap(s.buf) < n {
		s.buf = make([]T, n) //fedlint:allow hotalloc — grows only past the largest geometry this pooled scratch has served; every smaller one reuses it
	}
	return s.buf[:n]
}

// im2col returns the virtual im2col matrix of g over xd in separable
// form: element (position i, tap l) is x[pos[i]+tap[l]], where x is xd
// itself, or its zero-bordered copy when the geometry pads. Both tables
// run gemmMaxMR-1 entries past their matrix dimension, repeating the
// last offset, so either can serve as the row table of an indirect
// operand (packSrc). Everything returned lives in s and is read-only
// from here on — built before any lane fan-out, shared by all of them.
func (s *convScratch[T]) im2col(xd []T, g *convGeom) (x []T, pos, tap []int) {
	hp, wp := g.h+2*g.pad, g.w+2*g.pad
	x = xd
	if g.pad > 0 {
		x = s.grow(g.n * g.c * hp * wp)
		padPlanes(x, xd, g.n*g.c, g.h, g.w, g.pad)
	}
	const slack = gemmMaxMR - 1
	rows, cols := g.rows(), g.cols()
	if need := rows + cols + 2*slack; cap(s.offs) < need {
		s.offs = make([]int, need) //fedlint:allow hotalloc — grows only past the largest geometry this pooled scratch has served; every smaller one reuses it
	}
	pos = s.offs[:rows+slack]
	tap = s.offs[rows+slack:][:cols+slack]
	i := 0
	for img := 0; img < g.n; img++ {
		for oy := 0; oy < g.oh; oy++ {
			base := (img*g.c*hp + oy*g.stride) * wp
			for ox := 0; ox < g.ow; ox++ {
				pos[i] = base + ox*g.stride
				i++
			}
		}
	}
	i = 0
	for ch := 0; ch < g.c; ch++ {
		for ky := 0; ky < g.kh; ky++ {
			for kx := 0; kx < g.kw; kx++ {
				tap[i] = (ch*hp+ky)*wp + kx
				i++
			}
		}
	}
	for i := 0; i < slack; i++ {
		pos[rows+i] = pos[rows-1]
		tap[cols+i] = tap[cols-1]
	}
	return x, pos, tap
}

// padPlanes copies planes h×w images from src into dst with a zero
// border pad wide on every side. dst is pooled and dirty, so the border
// is written every time.
//
// fedlint:hotpath
func padPlanes[T Float](dst, src []T, planes, h, w, pad int) {
	hp, wp := h+2*pad, w+2*pad
	for p := 0; p < planes; p++ {
		d := dst[p*hp*wp:][:hp*wp]
		clear(d[:pad*wp+pad])
		for y := 0; y < h; y++ {
			row := d[(pad+y)*wp+pad:]
			copy(row[:w], src[(p*h+y)*w:][:w])
			// The right border of this row and the left border of the next.
			clear(row[w : w+2*pad])
		}
		clear(d[(pad+h)*wp+pad:])
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
// (N,C,H,W), w (OutC, C·KH·KW) with C·KH·KW ≥ 1, bias length OutC; y is
// either the (N, OutC, OH, OW) activation or the (N·OH·OW)×OutC
// matmul-layout matrix, told apart by rank.
//
// fedlint:hotpath
func ConvForwardInto[T Float](y, x, w, bias *TensorOf[T], kh, kw, stride, pad int) {
	convForward(y, x, w, epi[T]{bias: bias.data}, kh, kw, stride, pad)
}

// ConvForwardReLUInto is ConvForwardInto followed by ReLU, fused into the
// same kernel epilogue.
//
// fedlint:hotpath
func ConvForwardReLUInto[T Float](y, x, w, bias *TensorOf[T], kh, kw, stride, pad int) {
	convForward(y, x, w, epi[T]{bias: bias.data, relu: true}, kh, kw, stride, pad)
}

func convForward[T Float](y, x, w *TensorOf[T], e epi[T], kh, kw, stride, pad int) {
	g := makeConvGeom(x.shape, kh, kw, stride, pad)
	m, kdim := g.rows(), g.cols()
	nOut := w.Dim(0)
	if w.Dim(1) != kdim || kdim == 0 {
		panic("tensor: ConvForwardInto weight shape mismatch")
	}
	if len(e.bias) != nOut {
		panic("tensor: ConvForwardInto bias length mismatch")
	}
	c := convView(y, &g, nOut, "ConvForwardInto output")
	if m == 0 || nOut == 0 {
		return
	}
	pool := convScratchPool[T]()
	s := pool.Get().(*convScratch[T])
	xp, pos, tap := s.im2col(x.data, &g)
	gemmBlockedOps(c,
		packSrc[T]{d: xp, kind: srcIndirect, rowOff: pos, depthOff: tap},
		packSrc[T]{d: w.data, rs: 1, cs: kdim},
		m, nOut, kdim, e)
	pool.Put(s)
}

// ConvGradWeightsInto computes the weight gradient dw = gmᵀ·im2col(x)
// without materializing im2col(x). dw must be (OutC, C·KH·KW) and is
// fully overwritten; gm is the output gradient, either (N, OutC, OH, OW)
// or the (N·OH·OW)×OutC matmul-layout matrix, told apart by rank.
//
// fedlint:hotpath
func ConvGradWeightsInto[T Float](dw, gm, x *TensorOf[T], kh, kw, stride, pad int) {
	g := makeConvGeom(x.shape, kh, kw, stride, pad)
	if dw.Dim(1) != g.cols() {
		panic("tensor: ConvGradWeightsInto output shape mismatch")
	}
	gv := convView(gm, &g, dw.Dim(0), "ConvGradWeightsInto gradient")
	convGradWeights(dw, gv.operand(), x, &g)
}

// convGradWeights is ConvGradWeightsInto for the gradient operand gs.
func convGradWeights[T Float](dw *TensorOf[T], gs packSrc[T], x *TensorOf[T], g *convGeom) {
	pos, kdim := g.rows(), g.cols()
	nOut := dw.Dim(0)
	if nOut == 0 || kdim == 0 {
		return
	}
	if pos == 0 {
		dw.Zero()
		return
	}
	// dWᵀ = im2colᵀ·g, so that the patch matrix is again the A operand:
	// taps are the rows, and a kdim-position, one-image view of dw puts
	// element (tap i, filter j) at dw[j·kdim+i].
	pool := convScratchPool[T]()
	s := pool.Get().(*convScratch[T])
	xp, posOff, tapOff := s.im2col(x.data, g)
	gemmBlockedOps(matView[T]{d: dw.data, sp: kdim, ch: nOut},
		packSrc[T]{d: xp, kind: srcIndirect, rowOff: tapOff, depthOff: posOff},
		gs,
		kdim, nOut, pos, epi[T]{})
	pool.Put(s)
}

// convChunkElems bounds the pooled scratch for the input-gradient pass:
// the virtual patch-gradient matrix is computed and scattered in row
// chunks of at most this many elements (128 KB at f64), replacing the
// full materialized dcols buffer. Chunk boundaries cannot affect bits:
// every chunk element is one complete ascending-k dot product, and the
// scatter runs in the exact col2imInto order across chunks.
const convChunkElems = 1 << 14

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
	if w.Dim(1) != g.cols() {
		panic("tensor: ConvGradInputInto weight shape mismatch")
	}
	gv := convView(gm, &g, w.Dim(0), "ConvGradInputInto gradient")
	convGradInput(dx, gv.operand(), w, &g)
}

// convGradInput is ConvGradInputInto for the gradient operand gs.
func convGradInput[T Float](dx *TensorOf[T], gs packSrc[T], w *TensorOf[T], g *convGeom) {
	pos, kdim := g.rows(), g.cols()
	nOut := w.Dim(0)
	dx.Zero()
	if pos == 0 || kdim == 0 || nOut == 0 {
		return
	}
	chunk := max(1, convChunkElems/kdim)
	pool := convScratchPool[T]()
	s := pool.Get().(*convScratch[T])
	buf := s.grow(min(chunk, pos) * kdim)
	for r0 := 0; r0 < pos; r0 += chunk {
		rows := min(chunk, pos-r0)
		cbuf := buf[:rows*kdim]
		gemmBlockedOps(matView[T]{d: cbuf, ld: kdim},
			gs.fromRow(r0),
			packSrc[T]{d: w.data, rs: kdim, cs: 1},
			rows, kdim, nOut, epi[T]{})
		convScatterChunk(dx.data, cbuf, g, r0, rows)
	}
	pool.Put(s)
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

// PooledGrad describes, without building it, the gradient a convolution
// receives through a ReLU fused into its kernel and a max-pool whose
// stride is its window: the (N, OutC, OH, OW) tensor that is zero except
// where a pooled element was read from, and there holds that element's
// gradient if the activation was positive. G is the gradient of the
// pool's output Y — both (N, OutC, PH, PW) — and Argmax[q] the flat
// index in (N, OutC, OH, OW) that Y[q] was read from, so Y[q] > 0 is the
// ReLU mask at Argmax[q], read contiguously.
type PooledGrad[T Float] struct {
	G, Y   *TensorOf[T]
	Argmax []int
	Size   int
}

// ConvBackwardPooled computes, for the gradient pg describes, what the
// layer-by-layer path computes from its dense form: db += its sum over
// images and positions, dw as ConvGradWeightsInto and — when dx is not
// nil — dx as ConvGradInputInto; x is the convolution's input and w its
// weights. The dense gradient is never written: the GEMMs pack their
// panels straight from pg (packPooled) — the same panels, zeros included,
// so no product is skipped — and the bias sum is read off the weight
// gradient's panels as they are packed (addColumnSums), every position
// ascending, as the pass over the dense tensor adds them. An empty pooled
// gradient packs as the all-zero dense one it describes.
//
// fedlint:hotpath
func ConvBackwardPooled[T Float](dw, db, dx *TensorOf[T], pg PooledGrad[T], x, w *TensorOf[T], kh, kw, stride, pad int) {
	g := makeConvGeom(x.shape, kh, kw, stride, pad)
	kdim, nOut := g.cols(), w.Dim(0)
	gd := pg.G
	if w.Dim(1) != kdim || dw.Dim(0) != nOut || dw.Dim(1) != kdim || db.Len() != nOut || dx != nil && dx.Len() != x.Len() ||
		gd.Rank() != 4 || gd.Dim(0) != g.n || gd.Dim(1) != nOut || pg.Size < 1 || gd.Dim(2)*pg.Size > g.oh || gd.Dim(3)*pg.Size > g.ow ||
		pg.Y.Len() != gd.Len() || len(pg.Argmax) != gd.Len() {
		panic("tensor: ConvBackwardPooled shape mismatch")
	}
	gs := packSrc[T]{d: gd.data, kind: srcPooled, view: matView[T]{sp: g.oh * g.ow, ch: nOut},
		y: pg.Y.data, argmax: pg.Argmax, ph: gd.Dim(2), pw: gd.Dim(3), band: pg.Size * g.ow}
	gw := gs
	gw.colSum = db.data
	convGradWeights(dw, gw, x, &g)
	if dx != nil {
		convGradInput(dx, gs, w, &g)
	}
}
