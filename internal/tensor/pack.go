package tensor

// Panel packing for the blocked GEMM core (gemm.go). Both operands are
// repacked into contiguous, micro-kernel-shaped panels before the inner
// loops run: packing absorbs the operand transposition (via row/column
// strides) and zero-pads ragged tails, so the register-tiled micro-kernel
// is branch-free and always streams unit-stride memory. The one operand
// that is never packed is the im2col side of a convolution: its elements
// sit at separable offsets into the input, and the indirect micro-kernel
// reads them in place (convgemm.go).
//
// Blocking parameters. These are fixed compile-time constants on purpose:
// the panel grid they induce over the output matrix is identical for
// every lane count, which is one half of the bit-determinism argument
// (the other half is that each grid cell is computed start-to-finish by
// exactly one goroutine; see gemm.go). gemmKC additionally fixes the
// k-summation association (one partial sum per KC panel), so it must
// never differ between two code paths that are expected to produce
// bit-identical results. The register tile is the one blocking parameter
// that is not a constant — float32's width follows the kernel dispatch
// (microTile) — and the one that may vary: it moves no cell or panel
// boundary and no summation order.
const (
	// gemmMR × gemmNR is the float64 register tile, in both kernel sets:
	// a 4×4 block of C, one row per YMM accumulator in the AVX kernels
	// (gemm_amd64.s).
	gemmMR = 4
	gemmNR = 4
	// f32MR × f32NR is the float32 register tile of the Go twins, an 8×4
	// block. f32NRAVX is its width where the 256-bit kernels run: a YMM
	// register holds an 8-lane row, so 8 accumulators hold 8×8.
	f32MR    = 8
	f32NR    = 4
	f32NRAVX = 8
	// gemmMC rows of A are packed per panel. Must be a multiple of both
	// MRs.
	gemmMC = 128
	// gemmKC is the depth of one packed panel pair: an A panel is
	// gemmMC×gemmKC (256 KB at f64), small enough to stay cache-resident
	// while the B panel streams against it.
	gemmKC = 256
	// gemmNC columns of B are packed per panel. Must be a multiple of
	// both NRs.
	gemmNC = 240
	// gemmMaxMR/gemmMaxNR bound the register tile across element types
	// and kernel sets; they size the shared accumulator (gemmAccLen in
	// gemm.go).
	gemmMaxMR = 8
	gemmMaxNR = 8
)

// microTile returns the (MR, NR) register tile for element type T. The
// float32 answer is a run-time one — it follows the kernel dispatch — but
// fixed for the life of the process, and the tile shape never shows in a
// result (see the determinism note in gemm.go).
func microTile[T Float]() (int, int) {
	if isF32[T]() {
		if useAVX {
			return f32MR, f32NRAVX
		}
		return f32MR, f32NR
	}
	return gemmMR, gemmNR
}

// packA copies the mc×kc block of the logical matrix A starting at row i0,
// depth p0 into ap as column-major micro-panels of mr rows, zero-padding
// the last panel when mc is not a multiple of mr. Element (i, l) of the
// logical (possibly transposed) A is ad[i*ars + l*acs].
func packA[T Float](ap, ad []T, ars, acs, i0, p0, mc, kc, mr int) {
	idx := 0
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		base := (i0+ir)*ars + p0*acs
		for l := 0; l < kc; l++ {
			off := base + l*acs
			for r := 0; r < rows; r++ {
				ap[idx+r] = ad[off+r*ars]
			}
			for r := rows; r < mr; r++ {
				ap[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packB copies the kc×nc block of the logical matrix B starting at depth
// p0, column j0 into bp as row-major micro-panels of nr columns,
// zero-padding the last panel when nc is not a multiple of nr.
// Element (l, j) of the logical (possibly transposed) B is
// bd[l*brs + j*bcs].
func packB[T Float](bp, bd []T, brs, bcs, p0, j0, kc, nc, nr int) {
	idx := 0
	for jr := 0; jr < nc; jr += nr {
		cols := min(nr, nc-jr)
		base := p0*brs + (j0+jr)*bcs
		for l := 0; l < kc; l++ {
			off := base + l*brs
			for c := 0; c < cols; c++ {
				bp[idx+c] = bd[off+c*bcs]
			}
			for c := cols; c < nr; c++ {
				bp[idx+c] = 0
			}
			idx += nr
		}
	}
}

// zeroLanes clears lanes [lane0, ld) of every depth step of a micro-panel
// ld lanes wide: the padding past a ragged m or n tail. Scratch is pooled
// and dirty, so the zeros are written on every pack.
func zeroLanes[T Float](panel []T, ld, lane0 int) {
	for l := 0; l+ld <= len(panel); l += ld {
		for r := lane0; r < ld; r++ {
			panel[l+r] = 0
		}
	}
}

// packAPosChan is packA over a position-by-channel view (rows are
// positions, depth is channels): the row offsets of a micro-panel are
// found once, and a depth step moves all of them one plane on.
//
// fedlint:hotpath
func packAPosChan[T Float](ap []T, v *matView[T], i0, p0, mc, kc, mr int) {
	var offs [gemmMaxMR]int
	idx := 0
	for ir := 0; ir < mc; ir += mr {
		rows := min(mr, mc-ir)
		cs := v.rowOffsets(offs[:rows], i0+ir)
		for l := 0; l < kc; l++ {
			col := (p0 + l) * cs
			for r := 0; r < rows; r++ {
				ap[idx+r] = v.d[offs[r]+col]
			}
			for r := rows; r < mr; r++ {
				ap[idx+r] = 0
			}
			idx += mr
		}
	}
}

// packBPosChan is packB over a position-by-channel view (depth is
// positions, columns are channels): each column of a micro-panel reads
// its channel's planes front to back — contiguous runs, one per image
// the k-panel touches — and writes them nr apart.
//
// fedlint:hotpath
func packBPosChan[T Float](bp []T, v *matView[T], p0, j0, kc, nc, nr int) {
	img0 := p0 / v.sp
	pos0 := p0 - img0*v.sp
	for jr := 0; jr < nc; jr += nr {
		panel := bp[(jr/nr)*nr*kc:][:nr*kc]
		cols := min(nr, nc-jr)
		for c := 0; c < cols; c++ {
			img, pos := img0, pos0
			for l := 0; l < kc; {
				n := min(v.sp-pos, kc-l)
				src := v.d[(img*v.ch+j0+jr+c)*v.sp+pos:][:n]
				dst := panel[l*nr+c:]
				for t, x := range src {
					dst[t*nr] = x
				}
				l += n
				pos = 0
				img++
			}
		}
		zeroLanes(panel, nr, cols)
	}
}

// packPooled packs rows [r0, r0+rows) × channels [c0, c0+chans) of a
// pooled gradient's position-by-channel view into micro-panels w lanes
// wide and kc deep — positions along the lanes for an A operand
// (posLanes), along the depth for B — without the view ever existing.
// The panels are cleared once, which is also their ragged-lane zero
// fill; then each pooled element whose argmax falls in the block is
// added at that position, behind the ReLU mask its own pool output
// carries (y[q] is the activation at argmax[q]). An element is thus
// 0 + Σ g in window order where the activation was positive and +0
// elsewhere: bit for bit what the pool's backward scatter and the ReLU
// mask pass write, and what packAPosChan / packBPosChan would copy.
//
// fedlint:hotpath
func (p *packSrc[T]) packPooled(dst []T, r0, rows, c0, chans, kc, w int, posLanes bool) {
	// Lane x, depth l of a panel set sits at (x/w)·w·kc + l·w + x%w; w is
	// a power of two. slot[i] is the share of block row i in that: a lane
	// for A, the depth (pm keeps i whole) for B.
	lanes, pm, ps := chans, -1, w
	if posLanes {
		lanes, pm, ps = rows, w-1, 1
	}
	var slot [max(gemmMC, gemmKC)]int
	for i := range slot[:rows] {
		slot[i] = (i&^pm)*kc + (i&pm)*ps
	}
	clear(dst[:(lanes+w-1)/w*w*kc])
	sp, ch, ph, pw := p.view.sp, p.view.ch, p.ph, p.pw
	psp := ph * pw
	for img := r0 / sp; img*sp < r0+rows; img++ {
		// Only the pooled rows whose bands meet the block can land in it.
		lo, hi := max(r0-img*sp, 0), min(r0+rows-img*sp, sp)
		qa, qb := min(lo/p.band, ph)*pw, min((hi-1)/p.band+1, ph)*pw
		for c := 0; c < chans; c++ {
			off := (c&^(w-1))*kc + c&(w-1)
			if posLanes {
				off = c * w
			}
			pl := img*ch + c0 + c
			base := (pl-img)*sp + r0 // argmax − base is the row within the block
			col, g, y := dst[off:], p.d[pl*psp+qa:pl*psp+qb], p.y[pl*psp+qa:pl*psp+qb]
			for t, at := range p.argmax[pl*psp+qa : pl*psp+qb] {
				if i := at - base; uint(i) < uint(rows) {
					col[slot[i]] += Select(y[t] > 0, g[t], 0)
				}
			}
		}
	}
}

// addColumnSums adds to s[j] the sum of column j of the packed kc×nc B
// block bp, depth ascending: the sum a pass down that column of the
// operand itself would keep, zeros included, but four columns at a
// time, so one running sum's adds overlap the others'. Lanes past nc are
// the panel's zero fill, and their sums are dropped.
//
// fedlint:hotpath
func addColumnSums[T Float](s, bp []T, kc, nc, nr int) {
	for j := 0; j < nc; j += 4 {
		var t [4]T
		n := copy(t[:], s[j:nc])
		s0, s1, s2, s3 := t[0], t[1], t[2], t[3]
		i := (j/nr)*nr*kc + j%nr
		for end := i + nr*kc; i < end; i += nr {
			v := bp[i : i+4 : i+4]
			s0, s1, s2, s3 = s0+v[0], s1+v[1], s2+v[2], s3+v[3]
		}
		t = [4]T{s0, s1, s2, s3}
		copy(s[j:nc], t[:n])
	}
}
