package tensor

import (
	"math/rand"
	"testing"
)

// Register-tile bake-off: the scalar candidate tiles that lost to the
// production tiles, a driver that runs the blocked algorithm
// with any of them, the cross-tile bit-equivalence test and the
// benchmarks. None of this is reachable from production code: gemmCell
// only ever runs microTile[T]().

// tileKernel returns the micro-kernel for an (mr, nr) register tile at
// element type T: the production kernel — assembly or, with the dispatch
// cleared, the twin — where (mr, nr) is T's production tile under the
// current dispatch, a scalar candidate otherwise, nil where there is
// neither (8×8 without the 256-bit kernels).
func tileKernel[T Float](mr, nr int) func(kc int, ap, bp []T, acc *[gemmAccLen]T) {
	if pm, pn := microTile[T](); mr == pm && nr == pn {
		return microKernel[T]
	}
	switch [2]int{mr, nr} {
	case [2]int{4, 2}:
		return micro4x2[T]
	case [2]int{8, 2}:
		return micro8x2[T]
	case [2]int{4, 4}:
		return micro4x4[T]
	case [2]int{8, 4}:
		return micro8x4[T]
	}
	return nil
}

// blockedTileInto is the blocked algorithm of gemmBlockedOps/gemmCell —
// same grid, same KC panels, same packers and merge — run serially with
// an explicit register tile.
func blockedTileInto[T Float](dst, a, b *TensorOf[T], transA, transB bool, mr, nr int) {
	m, n, k, pa, pb := stridedOperands(a, b, transA, transB)
	kern := tileKernel[T](mr, nr)
	c := matView[T]{d: dst.data, ld: n}
	pool := gemmScratchPool[T]()
	s := pool.Get().(*gemmScratch[T])
	s.fit(m, n, k, mr, nr, true)
	defer pool.Put(s)
	var rowOffs [gemmMC]int
	var acc [gemmAccLen]T
	for i0 := 0; i0 < m; i0 += gemmMC {
		mc := min(gemmMC, m-i0)
		cs := c.rowOffsets(rowOffs[:mc], i0)
		for j0 := 0; j0 < n; j0 += gemmNC {
			nc := min(gemmNC, n-j0)
			for p0 := 0; p0 < k; p0 += gemmKC {
				kc := min(gemmKC, k-p0)
				pa.packIntoA(s.ap, i0, p0, mc, kc, mr)
				pb.packIntoB(s.bp, p0, j0, kc, nc, nr)
				for jr := 0; jr < nc; jr += nr {
					for ir := 0; ir < mc; ir += mr {
						kern(kc, s.ap[(ir/mr)*mr*kc:], s.bp[(jr/nr)*nr*kc:], &acc)
						mergeTile(c.d, rowOffs[ir:min(ir+mr, mc)], cs, j0+jr, min(nr, nc-jr), nr, &acc, p0 == 0, nil)
					}
				}
			}
		}
	}
}

// micro4x2 multiplies one packed A micro-panel (4×kc, column-major) by
// one packed B micro-panel (kc×2, row-major), keeping the full 4×2
// product tile in scalar registers across the k loop. The tile shape is
// chosen for the scalar register budget: 8 accumulators + 4 A values +
// 2 B values = 14 live values, which fits amd64's 16 XMM registers — a
// scalar 4×4 tile needs 24 and spills every iteration. It was the
// float64 production tile until the 4×4 assembly kernel (gemm_amd64.s)
// replaced it. The k loop is
// unrolled 8× (with a single-step remainder loop) to amortize branch
// overhead over the 16 independent multiply-add chains per step.
//
// k runs strictly ascending through both loops, which fixes the
// floating-point reduction order regardless of kc or unroll boundaries.
func micro4x2[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	var c00, c01 T
	var c10, c11 T
	var c20, c21 T
	var c30, c31 T
	ap = ap[: 4*kc : 4*kc]
	bp = bp[: 2*kc : 2*kc]
	for len(ap) >= 32 && len(bp) >= 16 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[4], ap[5], ap[6], ap[7]
		b0, b1 = bp[2], bp[3]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[8], ap[9], ap[10], ap[11]
		b0, b1 = bp[4], bp[5]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[12], ap[13], ap[14], ap[15]
		b0, b1 = bp[6], bp[7]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[16], ap[17], ap[18], ap[19]
		b0, b1 = bp[8], bp[9]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[20], ap[21], ap[22], ap[23]
		b0, b1 = bp[10], bp[11]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[24], ap[25], ap[26], ap[27]
		b0, b1 = bp[12], bp[13]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		a0, a1, a2, a3 = ap[28], ap[29], ap[30], ap[31]
		b0, b1 = bp[14], bp[15]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[32:]
		bp = bp[16:]
	}
	for len(ap) >= 4 && len(bp) >= 2 {
		a0, a1, a2, a3 := ap[0], ap[1], ap[2], ap[3]
		b0, b1 := bp[0], bp[1]
		c00 += a0 * b0
		c01 += a0 * b1
		c10 += a1 * b0
		c11 += a1 * b1
		c20 += a2 * b0
		c21 += a2 * b1
		c30 += a3 * b0
		c31 += a3 * b1
		ap = ap[4:]
		bp = bp[2:]
	}
	acc[0], acc[1] = c00, c01
	acc[2], acc[3] = c10, c11
	acc[4], acc[5] = c20, c21
	acc[6], acc[7] = c30, c31
}

// micro8x2 is the 8×2 scalar candidate tile (18 live values — two more
// than the amd64 XMM file, so the compiler spills). Accumulator stride 2.
func micro8x2[T Float](kc int, ap, bp []T, acc *[gemmAccLen]T) {
	var c [16]T
	ap = ap[: 8*kc : 8*kc]
	bp = bp[: 2*kc : 2*kc]
	for len(ap) >= 16 && len(bp) >= 4 {
		b0, b1 := bp[0], bp[1]
		for r := 0; r < 8; r++ {
			a := ap[r]
			c[2*r] += a * b0
			c[2*r+1] += a * b1
		}
		b0, b1 = bp[2], bp[3]
		for r := 0; r < 8; r++ {
			a := ap[8+r]
			c[2*r] += a * b0
			c[2*r+1] += a * b1
		}
		ap = ap[16:]
		bp = bp[4:]
	}
	for len(ap) >= 8 && len(bp) >= 2 {
		b0, b1 := bp[0], bp[1]
		for r := 0; r < 8; r++ {
			a := ap[r]
			c[2*r] += a * b0
			c[2*r+1] += a * b1
		}
		ap = ap[8:]
		bp = bp[2:]
	}
	copy(acc[:16], c[:])
}

// testBlockedTileEquivalence pins the tile-shape independence claim the
// bake-off and the kernel dispatch rely on: within one KC panel every
// register tile sums each output element in the same ascending-k order,
// so all tiles (the production 4×4 and 8×4 or — where the 256-bit
// kernels run — 8×8, assembly or twin, included) produce bit-identical
// results.
func testBlockedTileEquivalence[T Float](t *testing.T) {
	rng := rand.New(rand.NewSource(21))
	m, k, n := 65, 130, 37 // ragged against every tile, single k-panel and multi-cell-free
	a := randTensorOf[T](rng, m, k)
	b := randTensorOf[T](rng, k, n)
	ref := NewOf[T](m, n)
	blockedTileInto(ref, a, b, false, false, 4, 2)
	// 8×8 exists only as float32's production tile under the 256-bit
	// kernels; a tile with no kernel is skipped.
	for _, tile := range [][2]int{{8, 2}, {4, 4}, {8, 4}, {8, 8}} {
		if tileKernel[T](tile[0], tile[1]) == nil {
			continue
		}
		got := NewOf[T](m, n)
		blockedTileInto(got, a, b, false, false, tile[0], tile[1])
		for i, v := range got.Data() {
			if bits64(v) != bits64(ref.Data()[i]) {
				t.Fatalf("tile %dx%d differs from 4x2 at %d: %#x vs %#x", tile[0], tile[1], i, bits64(v), bits64(ref.Data()[i]))
			}
		}
	}
}

func TestBlockedTileEquivalence(t *testing.T) { conformEntry(t) }

// Register-tile bake-off on the LeNet conv2 shape, serial, per width:
// the production tile (assembly on an AVX host) against the scalar
// candidates.
func benchTile[T Float](b *testing.B, mr, nr int) {
	if tileKernel[T](mr, nr) == nil {
		b.Skip("no kernel for this tile under the current dispatch")
	}
	m, k, n := 1280, 500, 40
	rng := rand.New(rand.NewSource(1))
	a := randTensorOf[T](rng, m, k)
	bt := randTensorOf[T](rng, n, k)
	dst := NewOf[T](m, n)
	old := MaxLanes()
	SetMaxLanes(0)
	defer SetMaxLanes(old)
	var z T
	b.SetBytes(int64(elemSize(z) * (m*k + n*k + m*n)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		blockedTileInto(dst, a, bt, false, true, mr, nr)
	}
}

func BenchmarkGEMMF32Tile4x2(b *testing.B) { benchTile[float32](b, 4, 2) }
func BenchmarkGEMMF32Tile8x2(b *testing.B) { benchTile[float32](b, 8, 2) }
func BenchmarkGEMMF32Tile4x4(b *testing.B) { benchTile[float32](b, 4, 4) }
func BenchmarkGEMMF32Tile8x4(b *testing.B) { benchTile[float32](b, 8, 4) }
func BenchmarkGEMMF32Tile8x8(b *testing.B) { benchTile[float32](b, 8, 8) }
func BenchmarkGEMMF64Tile4x2(b *testing.B) { benchTile[float64](b, 4, 2) }
func BenchmarkGEMMF64Tile8x2(b *testing.B) { benchTile[float64](b, 8, 2) }
func BenchmarkGEMMF64Tile4x4(b *testing.B) { benchTile[float64](b, 4, 4) }
