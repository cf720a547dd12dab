package table

import (
	"fmt"
	"math"
	"math/rand"
	"sort"
	"testing"
)

// oracleLocate and oracleEval are the per-table interpolation this package
// shipped before the Stencil: every lookup binary-searches each axis, and
// every corner rebuilds its weight and, for the gradient, every
// leave-one-out weight from scratch. They are kept verbatim as the
// bit-identity oracle of the stencil path. (oracleLocate panics on a NaN
// coordinate, so the oracle only covers non-NaN inputs.)
func oracleLocate(points []float64, x float64) (int, float64) {
	n := len(points)
	if n == 1 {
		return 0, 0
	}
	if x <= points[0] {
		return 0, 0
	}
	if x >= points[n-1] {
		return n - 2, 1
	}
	i := sort.SearchFloat64s(points, x)
	if points[i] > x {
		i--
	}
	if i >= n-1 {
		i = n - 2
	}
	frac := (x - points[i]) / (points[i+1] - points[i])
	return i, frac
}

func oracleEval(t *Table, coords []float64, wantGrad bool) (float64, []float64) {
	rank := t.Rank()
	if len(coords) != rank {
		panic(fmt.Sprintf("table: %d coords for rank-%d table", len(coords), rank))
	}
	var lo [MaxRank]int
	var frac [MaxRank]float64
	var width [MaxRank]float64
	var clamped [MaxRank]bool
	for i := 0; i < rank; i++ {
		pts := t.Axes[i].Points
		li, f := oracleLocate(pts, coords[i])
		lo[i] = li
		frac[i] = f
		if len(pts) > 1 {
			width[i] = pts[li+1] - pts[li]
		} else {
			width[i] = 1
		}
		clamped[i] = len(pts) == 1 ||
			(coords[i] <= pts[0]) || (coords[i] >= pts[len(pts)-1])
	}
	var value float64
	var grad []float64
	if wantGrad {
		grad = make([]float64, rank)
	}
	corners := 1 << rank
	for c := 0; c < corners; c++ {
		w := 1.0
		off := 0
		for i := 0; i < rank; i++ {
			bit := (c >> i) & 1
			k := lo[i]
			if len(t.Axes[i].Points) > 1 {
				k += bit
			}
			off += k * t.strides[i]
			if bit == 1 {
				w *= frac[i]
			} else {
				w *= 1 - frac[i]
			}
		}
		d := t.Data[off]
		value += w * d
		if wantGrad {
			for i := 0; i < rank; i++ {
				if clamped[i] {
					continue
				}
				wi := 1.0
				for j := 0; j < rank; j++ {
					if j == i {
						continue
					}
					if (c>>j)&1 == 1 {
						wi *= frac[j]
					} else {
						wi *= 1 - frac[j]
					}
				}
				if (c>>i)&1 == 1 {
					grad[i] += wi * d / width[i]
				} else {
					grad[i] -= wi * d / width[i]
				}
			}
		}
	}
	return value, grad
}

// randomTable builds a rank-r table with irregular breakpoints (some axes a
// single point when single is set) and signed samples spanning many
// magnitudes, so rounding differences cannot hide.
func randomTable(rng *rand.Rand, rank int, single bool) *Table {
	axes := make([]Axis, rank)
	for i := range axes {
		n := 2 + rng.Intn(5)
		if single && rng.Intn(3) == 0 {
			n = 1
		}
		pts := make([]float64, n)
		x := rng.NormFloat64()
		for k := range pts {
			pts[k] = x
			x += 0.01 + rng.ExpFloat64()
		}
		axes[i] = Axis{Name: fmt.Sprintf("x%d", i), Points: pts}
	}
	t := MustNew(axes...)
	for k := range t.Data {
		t.Data[k] = rng.NormFloat64() * math.Pow(10, float64(rng.Intn(13)-6))
	}
	return t
}

// randomCoord draws one coordinate for axis pts: interior, exactly on a
// breakpoint, just past an edge, far outside, or ±Inf.
func randomCoord(rng *rand.Rand, pts []float64) float64 {
	lo, hi := pts[0], pts[len(pts)-1]
	switch rng.Intn(8) {
	case 0:
		return pts[rng.Intn(len(pts))]
	case 1:
		return lo - rng.ExpFloat64()
	case 2:
		return hi + rng.ExpFloat64()
	case 3:
		return math.Inf(1 - 2*rng.Intn(2))
	case 4:
		return math.Nextafter(pts[rng.Intn(len(pts))], math.Inf(1-2*rng.Intn(2)))
	default:
		return lo + (hi-lo+1)*rng.Float64() - 0.5
	}
}

func sameBits(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestStencilBitIdenticalToOracle is the bit-identity property of the
// stencil path: At, Grad, and Locate/LocateGrad+Eval/EvalGrad reproduce
// the per-table oracle's value and every gradient component bit for bit,
// over ranks 1–6, random/breakpoint/out-of-span/±Inf coordinates and
// single-point axes — and a stencil located on one table evaluates a
// second table of the same grid exactly as that table's own oracle does.
func TestStencilBitIdenticalToOracle(t *testing.T) {
	rng := rand.New(rand.NewSource(13))
	var s Stencil // reused across every case, as a hot loop would
	var sg GradStencil
	grad := make([]float64, MaxRank)
	for rank := 1; rank <= MaxRank; rank++ {
		for trial := 0; trial < 40; trial++ {
			tb := randomTable(rng, rank, trial%2 == 1)
			other := tb.Map(func(v float64) float64 { return v*rng.NormFloat64() + 1 })
			for q := 0; q < 25; q++ {
				coords := make([]float64, rank)
				for i := range coords {
					coords[i] = randomCoord(rng, tb.Axes[i].Points)
				}
				wantV, wantG := oracleEval(tb, coords, true)
				if v := tb.At(coords...); !sameBits(v, wantV) {
					t.Fatalf("rank %d At(%v) = %v, oracle %v", rank, coords, v, wantV)
				}
				v, g := tb.Grad(coords...)
				if !sameBits(v, wantV) {
					t.Fatalf("rank %d Grad(%v) value = %v, oracle %v", rank, coords, v, wantV)
				}
				tb.Locate(&s, coords)
				tb.LocateGrad(&sg, coords)
				if v := tb.Eval(&s); !sameBits(v, wantV) {
					t.Fatalf("rank %d Eval(%v) = %v, oracle %v", rank, coords, v, wantV)
				}
				if v := tb.EvalGrad(&sg, grad); !sameBits(v, wantV) {
					t.Fatalf("rank %d EvalGrad(%v) value = %v, oracle %v", rank, coords, v, wantV)
				}
				for i := range wantG {
					if !sameBits(g[i], wantG[i]) || !sameBits(grad[i], wantG[i]) {
						t.Fatalf("rank %d grad[%d] at %v: Grad %v, EvalGrad %v, oracle %v",
							rank, i, coords, g[i], grad[i], wantG[i])
					}
				}
				// Shared grid: the second table reads tb's stencil.
				wantV, wantG = oracleEval(other, coords, true)
				if v := other.Eval(&sg.Stencil); !sameBits(v, wantV) {
					t.Fatalf("rank %d shared-grid Eval = %v, oracle %v", rank, v, wantV)
				}
				if v := other.EvalGrad(&sg, grad); !sameBits(v, wantV) {
					t.Fatalf("rank %d shared-grid EvalGrad = %v, oracle %v", rank, v, wantV)
				}
				for i := range wantG {
					if !sameBits(grad[i], wantG[i]) {
						t.Fatalf("rank %d shared-grid grad[%d] = %v, oracle %v", rank, i, grad[i], wantG[i])
					}
				}
			}
		}
	}
}

// TestNaNCoordinate: a NaN coordinate has no cell. It must not panic; the
// value and every gradient component come back NaN, on live, clamped and
// single-point axes alike, so a Newton solve sees a non-finite system.
func TestNaNCoordinate(t *testing.T) {
	tb := MustNew(Uniform("a", 0, 1, 4), Axis{Name: "dead", Points: []float64{2}}, Uniform("c", -1, 1, 3))
	tb.Fill(func(c []float64) float64 { return 1 + c[0] - 2*c[2] })
	nan := math.NaN()
	for _, coords := range [][]float64{
		{nan, 2, 0.5}, // NaN on a live axis
		{0.5, nan, 0}, // NaN on a single-point axis
		{nan, 7, 9},   // NaN beside clamped axes
		{nan, nan, nan},
	} {
		if v := tb.At(coords...); !math.IsNaN(v) {
			t.Errorf("At(%v) = %v, want NaN", coords, v)
		}
		v, g := tb.Grad(coords...)
		if !math.IsNaN(v) {
			t.Errorf("Grad(%v) value = %v, want NaN", coords, v)
		}
		for i, gi := range g {
			if !math.IsNaN(gi) {
				t.Errorf("Grad(%v)[%d] = %v, want NaN", coords, i, gi)
			}
		}
	}
	// Rank 1, both axis kinds.
	if v := MustNew(Uniform("x", 0, 1, 3)).At(nan); !math.IsNaN(v) {
		t.Errorf("rank-1 At(NaN) = %v", v)
	}
	if v := MustNew(Axis{Name: "p", Points: []float64{1}}).At(nan); !math.IsNaN(v) {
		t.Errorf("single-point At(NaN) = %v", v)
	}
}

// TestStencilMisuse: a stencil must not be read by a table of another grid
// shape.
func TestStencilMisuse(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 3))
	b := MustNew(Uniform("x", 0, 1, 4), Uniform("y", 0, 1, 3))
	var s Stencil
	a.Locate(&s, []float64{0.2, 0.7})
	mustPanic(t, "different grid", func() { b.Eval(&s) })
	mustPanic(t, "coordinate count", func() { a.Locate(&s, []float64{0.2}) })
}

func mustPanic(t *testing.T, what string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Errorf("%s: no panic", what)
		}
	}()
	fn()
}

func TestSameGrid(t *testing.T) {
	a := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 3))
	// Equal breakpoints in separate slices under other names: same grid.
	b := MustNew(Uniform("p", 0, 1, 3), Uniform("q", 0, 1, 3))
	if !SameGrid(a, b) {
		t.Error("equal breakpoints in distinct slices not recognized as one grid")
	}
	nudged := MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 3))
	nudged.Axes[1].Points[1] = math.Nextafter(0.5, 1)
	for _, c := range []*Table{
		nudged,
		MustNew(Uniform("x", 0, 1, 3), Uniform("y", 0, 1, 4)),
		MustNew(Uniform("x", 0, 1, 3)),
	} {
		if SameGrid(a, c) {
			t.Errorf("grid %v reported equal to %v", c.Axes, a.Axes)
		}
	}
}

// TestStencilZeroAlloc: locating and evaluating through a caller-owned
// stencil and gradient buffer allocates nothing.
func TestStencilZeroAlloc(t *testing.T) {
	tb := randomTable(rand.New(rand.NewSource(1)), 4, false)
	var s GradStencil
	coords := []float64{0.1, 0.2, 0.3, 0.4}
	grad := make([]float64, 4)
	allocs := testing.AllocsPerRun(100, func() {
		tb.LocateGrad(&s, coords)
		tb.EvalGrad(&s, grad)
		tb.Eval(&s.Stencil)
		tb.At(coords...)
	})
	if allocs != 0 {
		t.Errorf("%v allocs per locate/evaluate cycle, want 0", allocs)
	}
}

// benchTable is a smooth table over the given per-axis point counts.
func benchTable(counts ...int) *Table {
	axes := make([]Axis, len(counts))
	for i, n := range counts {
		axes[i] = Uniform(fmt.Sprintf("x%d", i), -0.2, 1.4, n)
	}
	t := MustNew(axes...)
	t.Fill(func(c []float64) float64 {
		v := 1.0
		for _, x := range c {
			v = v*math.Sin(3*x) + x
		}
		return v
	})
	return t
}

var benchSink float64

// BenchmarkAt2D times a one-off 2-D lookup (the NLDM delay/slew read).
func BenchmarkAt2D(b *testing.B) {
	t := benchTable(7, 7)
	for i := 0; i < b.N; i++ {
		benchSink += t.At(0.31, 0.77)
	}
}
