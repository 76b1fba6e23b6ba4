package tensor

import (
	"sync"
	"sync/atomic"
)

// Blocked, packed GEMM core with fused epilogues, generic over the
// element type.
//
// Every matrix multiply in this package (plain, Aᵀ·B, A·Bᵀ), and every
// convolution GEMM (convgemm.go), runs through one BLIS/GotoBLAS-style
// blocked kernel at every shape:
//
//   - The output matrix is cut into a fixed grid of gemmMC×gemmNC cells,
//     numbered down the columns so that consecutive cells share their
//     B panel.
//   - Each cell is computed start-to-finish by exactly one goroutine: it
//     walks the k dimension in gemmKC panels (in ascending order), packs
//     the A and B panels into per-goroutine scratch (pack.go), and runs a
//     register-tiled micro-kernel over the packed panels (4×4 at
//     float64; 8×4 at float32, 8×8 where the 256-bit kernels run — AVX
//     assembly on an amd64 host that has it, the order-identical Go
//     twins below everywhere else; see microKernel, microTile and
//     gemm_amd64.s). An indirect A operand skips the packing: the same
//     tiles, on the same schedule, read a[r][l] =
//     x[rowOff[r]+depthOff[l]] in place (microKernelInd). The first
//     k-panel stores into C (implicit beta=0 — callers never pre-zero),
//     subsequent panels accumulate.
//   - The last k-panel's write applies the fused epilogue (+bias,
//     +bias→ReLU) to the tile on its way out, so C is never re-read for
//     it. Who writes: the 256-bit kernels store through — a first-panel
//     tile (every tile, where k fits one panel) whose mr rows all exist,
//     one stride apart, is written into C by the kernel itself, epilogue
//     included (tileDst; rows as vectors for a row-major C, columns
//     after an in-register transpose for a position-by-channel one).
//     Every other tile — a later k-panel's, a ragged last row tile, one
//     that straddles two images, and all of them on the twins — comes
//     back in an accumulator and goes through mergeTile, the one Go
//     definition of a finished tile, element by element. Same
//     operations in the same order either way, so the same bits (NaN
//     payloads excepted: see mergeTile).
//
// Operands are described by packSrc: a real strided matrix, the
// position-by-channel view of an (N,C,H,W) gradient — dense, or held
// only as the max-pooled tensor it is the unpooling of (PooledGrad) —
// or, A only, a matrix whose elements sit at separable offsets into a
// buffer, which is what the im2col matrix of a convolution input is
// (convgemm.go) and what the indirect micro-kernel reads without packing. The output is a
// matView: row-major, or that same position-by-channel view of an
// (N,C,H,W) activation tensor. The blocked core is identical for every
// combination, so convolution inherits every determinism property below
// without a materialized im2col buffer, packed or not, or a
// layout-permute pass.
//
// Determinism: the cell grid and panel boundaries depend only on the
// problem shape (compile-time constants), and each output element is
// produced by one goroutine running a fixed instruction sequence — the
// floating-point accumulation order never depends on how many lanes the
// semaphore granted. Results are therefore bit-identical for any lane
// count, which the federated engines' bit-identical-history guarantee
// (internal/fl) inherits. The register tile shape does not participate
// in that argument (each output element is a strictly-ascending-k sum
// within each KC panel for every tile), so the AVX tiles and the Go twins
// produce bit-identical results too — packed or indirect, which differ
// only in where an A element is loaded from.
//
// One rounding per multiply and one per add is part of that sequence.
// The assembly never uses FMA, and neither may the Go code: the language
// lets a compiler fuse x*y + z (arm64, ppc64le, s390x and riscv64 do)
// unless the product is explicitly converted, so every multiply-add in
// this package and in internal/nn is written c += T(a*b) — as is every
// one outside them that feeds a result. `make nofma` holds the line.

// gemmParallelCutoff is the m·n·k volume below which the blocked kernel
// does not ask the lane semaphore for help.
const gemmParallelCutoff = 1 << 18

// gemmAccLen sizes the shared micro-kernel accumulator: one full
// gemmMaxMR×gemmMaxNR register tile. Smaller tiles use a leading subset.
const gemmAccLen = gemmMaxMR * gemmMaxNR

// epi is the fused epilogue applied to each output element after the full
// k reduction: dst = f(sum + bias), where f is ReLU when relu is set. No
// mask of the clamp is kept: y > 0 exactly where the pre-activation was,
// so ReLU's backward pass reads it off the output.
type epi[T Float] struct {
	bias []T // length n, broadcast across rows; nil = none
	relu bool
}

func (e *epi[T]) active() bool { return e.bias != nil || e.relu }

// matView addresses a logical rows×cols matrix in one of two storage
// layouts: row-major with leading dimension ld (sp == 0), or the
// position-by-channel view of an (N, ch, sp) activation tensor — row
// i = img·sp + p is spatial position p of image img, column j is channel
// j, and the element lives at the tensor's own (img, j, p) offset. The
// second form is how convolution reads gradients from, and writes
// activations to, (N,C,H,W) tensors with no re-layout pass.
type matView[T Float] struct {
	d      []T
	ld     int
	sp, ch int
}

// off returns the storage offset of element (i, j).
func (v *matView[T]) off(i, j int) int {
	if v.sp == 0 {
		return i*v.ld + j
	}
	img := i / v.sp
	return (img*v.ch+j)*v.sp + i - img*v.sp
}

// rowOffsets fills offs[r] with the storage offset of element (i0+r, 0)
// and returns the column stride, so element (i0+r, j) lives at
// offs[r] + j·cs in either layout.
func (v *matView[T]) rowOffsets(offs []int, i0 int) (cs int) {
	if v.sp == 0 {
		for r := range offs {
			offs[r] = (i0 + r) * v.ld
		}
		return 1
	}
	img := i0 / v.sp
	p := i0 - img*v.sp
	for r := range offs {
		offs[r] = img*v.ch*v.sp + p
		if p++; p == v.sp {
			p = 0
			img++
		}
	}
	return v.sp
}

// srcKind selects how a packSrc addresses operand elements.
type srcKind uint8

// The zero kind is a strided matrix: element (i,l) at d[i*rs+l*cs].
const (
	srcIndirect srcKind = iota + 1 // A only, read in place: element (i,l) at d[rowOff[i]+depthOff[l]]
	srcPosChan                     // element (i,l) at view.off(row0+i,l)
	srcPooled                      // the unpooling of d through argmax, masked by y: see PooledGrad
)

// packSrc describes one GEMM operand: a real strided matrix, a
// separable-offset matrix (the im2col matrix of a convolution input,
// convgemm.go) that the micro-kernel reads in place instead of from a
// packed panel, a position-by-channel matView from logical row row0 on,
// or such a view of a gradient that exists only as its max-pooled form
// (PooledGrad, convgemm.go). Held by value end-to-end so the serial path
// allocates nothing.
type packSrc[T Float] struct {
	d      []T
	kind   srcKind
	rs, cs int
	// rowOff holds one entry per row, padded to a whole register tile
	// with copies of the last (the tile's surplus rows compute a valid
	// row again and are dropped by mergeTile); depthOff one per k.
	rowOff, depthOff []int
	// view is the matrix itself for a position-by-channel operand, its
	// geometry alone — sp and ch — for a pooled one.
	view matView[T]
	row0 int
	// srcPooled: d is the pooled gradient, y the pool's output and argmax
	// its index into the view's tensor, all in ph×pw planes; a pooled
	// row's windows span band consecutive positions.
	y            []T
	argmax       []int
	ph, pw, band int
	// colSum, B only and nil for none: colSum[j] += Σ B[l][j], l ascending
	// — a running sum per column, read off the packed panels as the first
	// row of cells walks them (addColumnSums).
	colSum []T
}

// operand describes the view as a GEMM operand. A row-major view is an
// ordinary strided matrix.
func (v matView[T]) operand() packSrc[T] {
	if v.sp == 0 {
		return packSrc[T]{d: v.d, rs: v.ld, cs: 1}
	}
	return packSrc[T]{kind: srcPosChan, view: v}
}

// fromRow returns the operand from its logical row r0 on.
func (p packSrc[T]) fromRow(r0 int) packSrc[T] {
	if p.kind == 0 {
		p.d = p.d[r0*p.rs:]
	} else {
		p.row0 += r0
	}
	return p
}

// packIntoA packs the mc×kc block at (i0, p0) of the operand viewed as A.
func (p *packSrc[T]) packIntoA(ap []T, i0, p0, mc, kc, mr int) {
	switch p.kind {
	case srcPosChan:
		packAPosChan(ap, &p.view, p.row0+i0, p0, mc, kc, mr)
	case srcPooled:
		p.packPooled(ap, p.row0+i0, mc, p0, kc, kc, mr, true)
	default:
		packA(ap, p.d, p.rs, p.cs, i0, p0, mc, kc, mr)
	}
}

// packIntoB packs the kc×nc block at (p0, j0) of the operand viewed as B.
func (p *packSrc[T]) packIntoB(bp []T, p0, j0, kc, nc, nr int) {
	switch p.kind {
	case srcPosChan:
		packBPosChan(bp, &p.view, p.row0+p0, j0, kc, nc, nr)
	case srcPooled:
		p.packPooled(bp, p.row0+p0, kc, j0, nc, kc, nr, false)
	default:
		packB(bp, p.d, p.rs, p.cs, p0, j0, kc, nc, nr)
	}
}

// gemmScratch is one goroutine's packing workspace. Pooled per element
// type so that concurrently-training clients (and concurrent GEMM lanes)
// never share scratch, while steady-state training allocates nothing.
// It starts empty and is sized by the calls it serves (see fit), not by
// the largest block the grid allows.
type gemmScratch[T Float] struct {
	ap []T // packed A block, at most gemmMC×gemmKC
	bp []T // packed B block, at most gemmKC×gemmNC
	// bp holds the B panel at (bP0, bJ0) of the current gemmBlockedOps
	// call, bP0 < 0 for none: a panel depends on nothing else, so the
	// cells of one column block share it instead of re-packing per cell.
	bP0, bJ0 int
}

// getGemmScratch takes a scratch from pool for one gemmBlockedOps call
// (one lane of it) of an m×n result over depth k, fitted to the call's
// blocks (packA false: A is read in place) and holding no panel of an
// earlier call's B.
func getGemmScratch[T Float](pool *sync.Pool, m, n, k int, packA bool) *gemmScratch[T] {
	s := pool.Get().(*gemmScratch[T])
	mr, nr := microTile[T]()
	s.fit(m, n, k, mr, nr, packA)
	s.bP0 = -1
	return s
}

// fit grows s to hold the largest blocks a call of an m×n result over
// depth k packs with an mr×nr register tile: ⌈min(gemmMC, m)/mr⌉·mr rows
// of A (none when packA is false) and ⌈min(gemmNC, n)/nr⌉·nr columns of
// B, each min(gemmKC, k) deep. It never shrinks a block, so a pooled
// scratch holds what the largest call it served needed and no more.
func (s *gemmScratch[T]) fit(m, n, k, mr, nr int, packA bool) {
	kc := min(gemmKC, k)
	if need := roundUp(min(gemmMC, m), mr) * kc; packA && cap(s.ap) < need {
		s.ap = make([]T, need) //fedlint:allow hotalloc — grows only when a call packs a larger A block than any this scratch served; pooled and reused thereafter
	}
	if need := roundUp(min(gemmNC, n), nr) * kc; cap(s.bp) < need {
		s.bp = make([]T, need) //fedlint:allow hotalloc — grows only when a call packs a larger B panel than any this scratch served; pooled and reused thereafter
	}
}

// roundUp rounds x up to a multiple of q.
func roundUp(x, q int) int { return (x + q - 1) / q * q }

// gemmCount, nil outside tests, counts the B panels packed and the tiles
// stored through.
var gemmCount *struct{ packB, direct atomic.Int64 }

var gemmPool64 = sync.Pool{New: func() any { return new(gemmScratch[float64]) }}
var gemmPool32 = sync.Pool{New: func() any { return new(gemmScratch[float32]) }}

// gemmScratchPool returns the scratch pool matching element type T.
func gemmScratchPool[T Float]() *sync.Pool {
	if isF32[T]() {
		return &gemmPool32
	}
	return &gemmPool64
}

// gemm computes dst = epilogue(op(a)·op(b)) where op is optional
// transposition. dst must be m×n and is fully overwritten.
func gemm[T Float](dst, a, b *TensorOf[T], transA, transB bool, e epi[T]) {
	cd := dst.data
	var m, k, n int
	var ars, acs, brs, bcs int
	if transA {
		k, m = a.Dim(0), a.Dim(1)
		ars, acs = 1, m
	} else {
		m, k = a.Dim(0), a.Dim(1)
		ars, acs = k, 1
	}
	if transB {
		n = b.Dim(0)
		if b.Dim(1) != k {
			panic("tensor: gemm inner dimension mismatch")
		}
		brs, bcs = 1, k
	} else {
		if b.Dim(0) != k {
			panic("tensor: gemm inner dimension mismatch")
		}
		n = b.Dim(1)
		brs, bcs = n, 1
	}
	if dst.Dim(0) != m || dst.Dim(1) != n {
		panic("tensor: gemm output shape mismatch")
	}
	if e.bias != nil && len(e.bias) != n {
		panic("tensor: gemm bias length mismatch")
	}
	if m == 0 || n == 0 {
		return
	}
	if k == 0 {
		for i := range cd {
			cd[i] = e.apply(0, i%n)
		}
		return
	}
	gemmBlockedOps(matView[T]{d: cd, ld: n},
		packSrc[T]{d: a.data, rs: ars, cs: acs},
		packSrc[T]{d: b.data, rs: brs, cs: bcs},
		m, n, k, e)
}

// gemmBlockedOps runs the panel-blocked kernel over the full output,
// fanning grid cells out across whatever lanes the shared semaphore
// grants.
func gemmBlockedOps[T Float](c matView[T], a, b packSrc[T], m, n, k int, e epi[T]) {
	rc := (m + gemmMC - 1) / gemmMC
	cc := (n + gemmNC - 1) / gemmNC
	cells := rc * cc
	// The MaxLanes()==0 check only short-circuits dispatch — per-cell
	// results are bit-identical on either path, so it cannot affect
	// outputs.
	if cells > 1 && m*n*k >= gemmParallelCutoff && MaxLanes() > 0 {
		gemmCellsParallel(c, a, b, m, n, k, e, rc, cells)
		return
	}
	pool := gemmScratchPool[T]()
	s := getGemmScratch[T](pool, m, n, k, a.kind != srcIndirect)
	for cell := 0; cell < cells; cell++ {
		gemmCell(c, a, b, m, n, k, e, rc, cell, s)
	}
	pool.Put(s)
}

// gemmCellsParallel is the fan-out path of gemmBlockedOps: the cells go
// to FanOut's workers one at a time, each worker on a pooled scratch of
// its own. It is its own function so that the closures — and the
// operands they capture, which move to the heap with them — exist only
// when cells are actually handed to other lanes: the serial path above
// stays allocation-free.
func gemmCellsParallel[T Float](c matView[T], a, b packSrc[T], m, n, k int, e epi[T], rc, cells int) {
	pool := gemmScratchPool[T]()
	// One scratch per worker: the caller's, then one per lane granted.
	scratch := make([]*gemmScratch[T], 1, min(cells, MaxLanes()+1))
	packA := a.kind != srcIndirect
	scratch[0] = getGemmScratch[T](pool, m, n, k, packA)
	FanOut(cells, cells, scratch[0], func(*gemmScratch[T]) (*gemmScratch[T], bool) {
		scratch = scratch[:len(scratch)+1]
		scratch[len(scratch)-1] = getGemmScratch[T](pool, m, n, k, packA)
		return scratch[len(scratch)-1], true
	}, func(cell int, s *gemmScratch[T]) {
		gemmCell(c, a, b, m, n, k, e, rc, cell, s)
	})
	for _, s := range scratch {
		pool.Put(s)
	}
}

// Flag bits of tileDst, shared with the store-through tails in
// gemm_amd64.s (const_tile* there).
const (
	tileReLU  = 1 << iota // clamp the finished sum at +0
	tileTrans             // position-by-channel C: the tile's columns are the contiguous runs
)

// tileDst is where and how a store-through micro-kernel writes its
// first-panel tile: element (r, j) of the tile goes to c[r·ld + j] —
// c[r + j·ld] under tileTrans — for all mr rows and j < nrv, through
// mergeTile's +bias (bias[j], nil for none) and ReLU steps as the flags
// say. C is never read.
type tileDst[T Float] struct {
	c       *T
	ld, nrv int
	bias    *T
	flags   int
}

// gemmCell computes one output grid cell: pack a k-panel of each
// operand (an indirect A is not packed — its kernel reads the panel in
// place; a B panel the last cell left in the scratch is not packed
// again), run the micro-kernel over every register tile and write the
// tiles into C (store on the first panel, accumulate on the rest,
// epilogue with the last) — a first-panel tile by the kernel itself
// where it stores through and the tile allows, every other from the
// accumulator by mergeTile. A B operand that carries colSum has its
// panels' column sums added there as the cells of the first row go by.
// Top-level (not a closure) so the serial path stays allocation-free.
//
// fedlint:hotpath
func gemmCell[T Float](c matView[T], a, b packSrc[T], m, n, k int, e epi[T], rc, cell int, s *gemmScratch[T]) {
	i0 := (cell % rc) * gemmMC
	j0 := (cell / rc) * gemmNC
	mc := min(gemmMC, m-i0)
	nc := min(gemmNC, n-j0)
	mr, nr := microTile[T]()
	var rowOffs [gemmMC]int
	cs := c.rowOffsets(rowOffs[:mc], i0)
	indirect := a.kind == srcIndirect
	// Only the assembly kernels store through, only on the first k-panel
	// (the store never reads C), and only tiles whose mr rows are all
	// there, one stride apart: any full tile of a row-major C, one that
	// stays inside an image of a position-by-channel C.
	to := tileDst[T]{ld: c.ld}
	if c.sp != 0 {
		to.ld, to.flags = cs, tileTrans
	}
	direct := 0
	for p0 := 0; p0 < k; p0 += gemmKC {
		kc := min(gemmKC, k-p0)
		if !indirect {
			a.packIntoA(s.ap, i0, p0, mc, kc, mr)
		}
		if s.bP0 != p0 || s.bJ0 != j0 {
			b.packIntoB(s.bp, p0, j0, kc, nc, nr)
			s.bP0, s.bJ0 = p0, j0
			if gemmCount != nil {
				gemmCount.packB.Add(1)
			}
		}
		if i0 == 0 && b.colSum != nil {
			addColumnSums(b.colSum[j0:], s.bp, kc, nc, nr)
		}
		first := p0 == 0
		var fin *epi[T]
		if p0+kc == k && e.active() {
			fin = &e
		}
		if first && fin != nil && fin.relu {
			to.flags |= tileReLU
		}
		var acc [gemmAccLen]T
		for jr := 0; jr < nc; jr += nr {
			bp := s.bp[(jr/nr)*nr*kc:]
			j := j0 + jr
			to.nrv = min(nr, nc-jr)
			to.bias = nil
			if fin != nil && fin.bias != nil {
				to.bias = &fin.bias[j]
			}
			for ir := 0; ir < mc; ir += mr {
				rows := rowOffs[ir:min(ir+mr, mc)]
				if first && useAVX && len(rows) == mr && (c.sp == 0 || rows[mr-1]-rows[0] == mr-1) {
					// The kernel checks no bounds: the tile's first and
					// last element do it here.
					_ = c.d[rows[mr-1]+(j+to.nrv-1)*cs]
					to.c = &c.d[rows[0]+j*cs]
					if indirect {
						microKernelIndTo(kc, a.d, a.rowOff[i0+ir:][:mr], a.depthOff[p0:], bp, &to)
					} else {
						microKernelTo(kc, s.ap[(ir/mr)*mr*kc:], bp, &to)
					}
					direct++
					continue
				}
				if indirect {
					microKernelInd(kc, a.d, a.rowOff[i0+ir:][:mr], a.depthOff[p0:], bp, &acc)
				} else {
					microKernel(kc, s.ap[(ir/mr)*mr*kc:], bp, &acc)
				}
				mergeTile(c.d, rows, cs, j, to.nrv, nr, &acc, first, fin)
			}
		}
	}
	if gemmCount != nil {
		gemmCount.direct.Add(int64(direct))
	}
}

// microKernel runs the register tile for T over one packed micro-panel
// pair into the accumulator (fully overwritten, row stride NR): the
// 256-bit assembly kernel where useAVX is set — to it the accumulator is
// a row-major C one tile wide on its first k-panel — and the Go twin
// everywhere else: other architectures, the purego build, an amd64 host
// without AVX. Either sums each output element in strictly ascending k
// order with one rounding per multiply and per add, so which one runs
// never shows in a result.
//
// fedlint:hotpath
func microKernel[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	if useAVX {
		_, nr := microTile[T]()
		microKernelTo(kc, ap, bp, &tileDst[T]{c: &acc[0], ld: nr, nrv: nr})
		return
	}
	if isF32[T]() {
		micro8x4(kc, ap, bp, acc)
		return
	}
	micro4x4(kc, ap, bp, acc)
}

// microKernelInd is microKernel with the A micro-panel read in place:
// a[r][l] = x[rowOff[r] + depthOff[l]] for the tile's mr rows (rowOff
// must hold mr entries, depthOff kc) against the packed B micro-panel bp.
//
// fedlint:hotpath
func microKernelInd[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T) {
	if useAVX {
		_, nr := microTile[T]()
		microKernelIndTo(kc, x, rowOff, depthOff, bp, &tileDst[T]{c: &acc[0], ld: nr, nrv: nr})
		return
	}
	microInd(kc, x, rowOff, depthOff, bp, acc)
}

// micro4x4 is the Go twin of the float64 assembly kernel: one packed A
// micro-panel (4×kc, column-major) times one packed B micro-panel (kc×4,
// row-major) into the 4×4 accumulator tile (row stride 4, fully
// overwritten). One rounding per multiply and per add, k strictly
// ascending per output element — the exact operation sequence of
// microF64AVX, per lane.
//
// fedlint:hotpath
func micro4x4[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	var c [16]T
	ap = ap[: 4*kc : 4*kc]
	bp = bp[: 4*kc : 4*kc]
	for len(ap) >= 4 && len(bp) >= 4 {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		for r := 0; r < 4; r++ {
			a := ap[r]
			c[4*r] += T(a * b0)
			c[4*r+1] += T(a * b1)
			c[4*r+2] += T(a * b2)
			c[4*r+3] += T(a * b3)
		}
		ap = ap[4:]
		bp = bp[4:]
	}
	copy(acc[:16], c[:])
}

// micro8x4 is the Go twin of the float32 assembly kernel: the 8×4 tile (A
// micro-panel 8×kc) on the same schedule as micro4x4. (microF32AVX's 8×8
// tile is two of these side by side; it has no twin of its own because
// no target without the assembly runs that shape.)
//
// fedlint:hotpath
func micro8x4[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	var c [32]T
	ap = ap[: 8*kc : 8*kc]
	bp = bp[: 4*kc : 4*kc]
	for len(ap) >= 8 && len(bp) >= 4 {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		for r := 0; r < 8; r++ {
			a := ap[r]
			c[4*r] += T(a * b0)
			c[4*r+1] += T(a * b1)
			c[4*r+2] += T(a * b2)
			c[4*r+3] += T(a * b3)
		}
		ap = ap[8:]
		bp = bp[4:]
	}
	copy(acc[:32], c[:])
}

// microInd is the Go twin of both indirect assembly kernels: the
// len(rowOff)×4 tile (4 rows at float64, 8 at float32) on the schedule
// of micro4x4 and micro8x4, with a[r][l] = x[rowOff[r]+depthOff[l]] read
// in place of a packed A micro-panel.
//
// fedlint:hotpath
func microInd[T Float](kc int, x []T, rowOff, depthOff []int, bp []T, acc *[gemmAccLen]T) {
	var c [gemmMaxMR * 4]T
	bp = bp[: 4*kc : 4*kc]
	for _, d := range depthOff[:kc] {
		b0, b1, b2, b3 := bp[0], bp[1], bp[2], bp[3]
		for r, ro := range rowOff {
			a := x[ro+d]
			c[4*r] += T(a * b0)
			c[4*r+1] += T(a * b1)
			c[4*r+2] += T(a * b2)
			c[4*r+3] += T(a * b3)
		}
		bp = bp[4:]
	}
	copy(acc[:len(c)], c[:])
}

// mergeTile writes the valid corner of a micro-tile into C: row r of the
// tile goes to offsets rowOffs[r] + (j+c)·cs for c < nrv. Plain store for
// the first k-panel (beta=0), accumulate after. accStride is the full
// tile NR (the accumulator row stride), which may exceed nrv at the right
// edge of the output. A non-nil e marks the last k-panel: the fused
// epilogue is applied to the finished sums on their way out. This is the
// definition of a finished tile; the store-through tails of gemm_amd64.s
// are the vector form of its first-panel case and are tested against it.
// Accumulation (C + tile) runs only here, so both kernel sets do it with
// the same compiled add. One thing compiled Go leaves open is which
// payload survives an operation on two NaNs — the compiler picks the
// operand order of the twins' multiplies and adds and of the sum + bias
// here (it changes under -race), the assembly pins the first source — so
// the kernel sets agree on such an element being NaN, not on its payload
// (there is no second assembly set to hold the payloads to).
//
// fedlint:hotpath
func mergeTile[T Float](cd []T, rowOffs []int, cs, j, nrv, accStride int, acc *[gemmAccLen]T, first bool, e *epi[T]) {
	for r, base := range rowOffs {
		av := acc[r*accStride : r*accStride+nrv]
		off := base + j*cs
		if e == nil {
			if first {
				for c, v := range av {
					cd[off+c*cs] = v
				}
			} else {
				for c, v := range av {
					cd[off+c*cs] += v
				}
			}
			continue
		}
		for c, v := range av {
			o := off + c*cs
			if !first {
				v = cd[o] + v
			}
			cd[o] = e.apply(v, j+c)
		}
	}
}

// apply finishes one output element: v is the full k sum of column j.
func (e *epi[T]) apply(v T, j int) T {
	if e.bias != nil {
		v += e.bias[j]
	}
	if e.relu {
		v = Select(v > 0, v, 0)
	}
	return v
}

// GemmScratchHeld reports how many elements a pooled GEMM workspace of
// element type T holds for its A block and its B panel: each is the
// largest that any call it served packed. For tests and diagnostics; it
// takes one workspace from the pool and puts it back.
func GemmScratchHeld[T Float]() (a, b int) {
	pool := gemmScratchPool[T]()
	s := pool.Get().(*gemmScratch[T])
	defer pool.Put(s)
	return cap(s.ap), cap(s.bp)
}
