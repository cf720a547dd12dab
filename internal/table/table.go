// Package table implements dense N-dimensional lookup tables with clamped
// multilinear interpolation and analytic gradients.
//
// Tables are the storage format for every pre-characterized CSM component:
// the paper's Io(VA,VB,VN,Vo) and IN(VA,VB,VN,Vo) current sources and the
// CmA/CmB/Co/CN capacitances are 4-D tables, the baseline MIS model uses 3-D
// tables, the SIS model 2-D tables, and receiver input capacitances 1-D
// tables. Grids are rectilinear: each axis carries its own strictly
// increasing breakpoint list.
//
// Interpolation clamps query coordinates to the axis span, matching the
// paper's characterization over [-Δv, Vdd+Δv]: the safety margin Δv ensures
// in-range lookups for mild over/undershoot, and anything beyond saturates.
package table

import (
	"errors"
	"fmt"
	"math"
)

// MaxRank is the largest table dimensionality supported.
const MaxRank = 6

// Axis is one dimension of a table: a name (for diagnostics and
// serialization) and a strictly increasing list of breakpoints.
type Axis struct {
	Name   string
	Points []float64
}

// Validate reports whether the axis is well-formed.
func (a Axis) Validate() error {
	if len(a.Points) == 0 {
		return fmt.Errorf("table: axis %q has no points", a.Name)
	}
	for i, p := range a.Points {
		if math.IsNaN(p) || math.IsInf(p, 0) {
			return fmt.Errorf("table: axis %q has non-finite point at %d", a.Name, i)
		}
		if i > 0 && p <= a.Points[i-1] {
			return fmt.Errorf("table: axis %q not strictly increasing at %d", a.Name, i)
		}
	}
	return nil
}

// Uniform returns an axis of n evenly spaced points spanning [lo, hi].
func Uniform(name string, lo, hi float64, n int) Axis {
	if n < 2 {
		n = 2
	}
	pts := make([]float64, n)
	for i := range pts {
		pts[i] = lo + (hi-lo)*float64(i)/float64(n-1)
	}
	return Axis{Name: name, Points: pts}
}

// Table is a dense N-dimensional array of float64 samples over a rectilinear
// grid. Data is stored row-major: the last axis varies fastest.
type Table struct {
	Axes []Axis
	Data []float64

	strides []int // cached index strides, last axis stride 1
}

// New allocates a zero-filled table over the given axes.
func New(axes ...Axis) (*Table, error) {
	if len(axes) == 0 || len(axes) > MaxRank {
		return nil, fmt.Errorf("table: rank %d outside [1,%d]", len(axes), MaxRank)
	}
	size := 1
	for _, a := range axes {
		if err := a.Validate(); err != nil {
			return nil, err
		}
		size *= len(a.Points)
	}
	t := &Table{Axes: axes, Data: make([]float64, size)}
	t.initStrides()
	return t, nil
}

// MustNew is like New but panics on invalid axes. Intended for tests.
func MustNew(axes ...Axis) *Table {
	t, err := New(axes...)
	if err != nil {
		panic(err)
	}
	return t
}

func (t *Table) initStrides() {
	t.strides = make([]int, len(t.Axes))
	stride := 1
	for i := len(t.Axes) - 1; i >= 0; i-- {
		t.strides[i] = stride
		stride *= len(t.Axes[i].Points)
	}
}

// Rank returns the number of dimensions.
func (t *Table) Rank() int { return len(t.Axes) }

// Size returns the total number of stored samples.
func (t *Table) Size() int { return len(t.Data) }

// flatIndex converts per-axis indices to the flat Data offset.
func (t *Table) flatIndex(idx []int) int {
	off := 0
	for i, k := range idx {
		off += k * t.strides[i]
	}
	return off
}

// Set stores v at the given per-axis indices.
func (t *Table) Set(v float64, idx ...int) {
	t.Data[t.flatIndex(idx)] = v
}

// Get returns the stored sample at the given per-axis indices.
func (t *Table) Get(idx ...int) float64 {
	return t.Data[t.flatIndex(idx)]
}

// Fill populates every sample by evaluating fn at the grid coordinates.
// coords is reused between calls; fn must not retain it.
func (t *Table) Fill(fn func(coords []float64) float64) {
	rank := t.Rank()
	idx := make([]int, rank)
	coords := make([]float64, rank)
	for flat := range t.Data {
		rem := flat
		for i := 0; i < rank; i++ {
			idx[i] = rem / t.strides[i]
			rem %= t.strides[i]
			coords[i] = t.Axes[i].Points[idx[i]]
		}
		t.Data[flat] = fn(coords)
	}
}

// locate finds the interpolation cell for x on axis points: it returns the
// lower breakpoint index i (so the cell is [i, i+1]) and the fractional
// position frac in [0,1]. Coordinates outside the span clamp to the edges.
// A NaN coordinate has no cell: it returns index 0 and a NaN fraction, which
// poisons every weight built from it.
func locate(points []float64, x float64) (int, float64) {
	if math.IsNaN(x) {
		return 0, math.NaN()
	}
	n := len(points)
	if n == 1 || x <= points[0] {
		return 0, 0
	}
	if x >= points[n-1] {
		return n - 2, 1
	}
	// Largest i with points[i] <= x; the span checks above bound it to
	// [0, n-2].
	lo, hi := 0, n-1
	for hi-lo > 1 {
		mid := int(uint(lo+hi) >> 1)
		if points[mid] <= x {
			lo = mid
		} else {
			hi = mid
		}
	}
	return lo, (x - points[lo]) / (points[lo+1] - points[lo])
}

// maxCorners is the corner count of a rank-MaxRank cell.
const maxCorners = 1 << MaxRank

// Stencil is a located interpolation cell: where one coordinate vector
// falls on a grid, independent of the samples stored there. It holds the
// per-axis fractions, widths and clamp flags, and per cell corner the flat
// sample offset and the multilinear weight. Every table whose axes carry
// the same breakpoints (SameGrid) evaluates from one Stencil
// bit-identically to its own At, which is Locate+Eval on a private Stencil:
// there is one interpolation implementation.
//
// A Stencil is plain data; a caller that keeps one makes repeated
// locate/evaluate cycles allocation-free.
type Stencil struct {
	rank    int
	size    int // sample count of the located grid (guards against misuse)
	frac    [MaxRank]float64
	width   [MaxRank]float64
	clamped [MaxRank]bool
	off     [maxCorners]int
	w       [maxCorners]float64
}

// GradStencil is a Stencil plus the gradient weights EvalGrad needs: per
// unclamped ("live") axis and corner, the corner weight with that axis's
// factor left out, negated on the axis's lower face, so that the weight's
// derivative along the axis is wi/width.
type GradStencil struct {
	Stencil
	nLive int
	live  [MaxRank]int // live axes, ascending
	wi    [MaxRank][maxCorners]float64
}

// Locate positions s at coords on t's grid. The number of coordinates must
// equal the rank.
//
// A corner's weight is the product of its per-axis factors (frac on the
// corner's upper face, 1−frac on its lower), multiplied from 1.0 left to
// right in axis order. The weights are built by doubling: after axis i the
// first 2^(i+1) entries hold the products over axes 0..i, so every corner
// sees exactly that multiplication sequence.
func (t *Table) Locate(s *Stencil, coords []float64) {
	t.locate(s, coords, nil)
}

// LocateGrad positions s at coords with the gradient weights as well.
//
// A leave-one-out weight continues the prefix product over the axes below
// the skipped one (a snapshot of the doubling before that axis) with the
// factors above it, again left to right from 1.0, so it too is bit-for-bit
// the product of the other factors in axis order. Negating it up front is
// exact: rounding is symmetric in sign.
func (t *Table) LocateGrad(s *GradStencil, coords []float64) {
	var snap [maxCorners]float64 // axis i's prefix products at [2^i−1, 2^(i+1)−1)
	t.locate(&s.Stencil, coords, &snap)
	rank, poisoned := s.rank, false
	for i := 0; i < rank; i++ {
		poisoned = poisoned || math.IsNaN(s.frac[i])
	}
	// A clamped axis has a zero derivative and no row, unless a NaN
	// coordinate poisons the lookup: then every component is NaN.
	s.nLive = 0
	for i := 0; i < rank; i++ {
		if s.clamped[i] && !poisoned {
			continue
		}
		wi := &s.wi[s.nLive]
		s.live[s.nLive] = i
		s.nLive++
		h := 1 << i
		for c := 0; c < h; c++ {
			p := snap[h-1+c]
			wi[c], wi[c+h] = -p, p
		}
		for j := i + 1; j < rank; j++ {
			hj, f := 1<<j, s.frac[j]
			for c := 0; c < hj; c++ {
				wi[c+hj] = wi[c] * f
				wi[c] *= 1 - f
			}
		}
	}
}

// locate fills s; a non-nil snap receives the prefix products LocateGrad
// builds its leave-one-out weights from.
func (t *Table) locate(s *Stencil, coords []float64, snap *[maxCorners]float64) {
	rank := len(t.Axes)
	if len(coords) != rank {
		panic(fmt.Sprintf("table: %d coords for rank-%d table", len(coords), rank))
	}
	s.rank, s.size = rank, len(t.Data)
	var step [MaxRank]int // flat offset of a corner's upper face per axis
	base := 0
	for i := 0; i < rank; i++ {
		pts := t.Axes[i].Points
		x := coords[i]
		li, f := locate(pts, x)
		s.frac[i] = f
		s.width[i] = 1
		if len(pts) > 1 {
			s.width[i] = pts[li+1] - pts[li]
			step[i] = t.strides[i]
		}
		s.clamped[i] = len(pts) == 1 || x <= pts[0] || x >= pts[len(pts)-1]
		if math.IsNaN(x) {
			// No cell: the fraction poisons the value and every other
			// axis's gradient component, the width this axis's own.
			s.width[i] = math.NaN()
		}
		base += li * t.strides[i]
	}
	s.w[0], s.off[0] = 1, base
	for i := 0; i < rank; i++ {
		h, f := 1<<i, s.frac[i]
		if snap != nil {
			for c := 0; c < h; c++ {
				snap[h-1+c] = s.w[c]
			}
		}
		for c := 0; c < h; c++ {
			s.w[c+h] = s.w[c] * f
			s.w[c] *= 1 - f
			s.off[c+h] = s.off[c] + step[i]
		}
	}
}

// check panics when s was not located on a grid of t's shape.
func (t *Table) check(s *Stencil) {
	if s.rank != len(t.Axes) || s.size != len(t.Data) {
		panic(fmt.Sprintf("table: stencil of a rank-%d/%d-sample grid used on a rank-%d/%d-sample table",
			s.rank, s.size, len(t.Axes), len(t.Data)))
	}
}

// Eval interpolates t at the coordinates s was located at. s must come
// from Locate (or LocateGrad) on a table with the same grid (SameGrid).
func (t *Table) Eval(s *Stencil) float64 {
	t.check(s)
	var value float64
	for c, off := range s.off[:1<<s.rank] {
		value += s.w[c] * t.Data[off]
	}
	return value
}

// EvalGrad interpolates t at the coordinates s was located at and writes
// the gradient into grad[:rank] (see Grad for its definition). s must come
// from LocateGrad on a table with the same grid.
//
// Each gradient component sums (wi·d)/width over the corners in corner
// order, exactly as a per-corner accumulation would.
func (t *Table) EvalGrad(s *GradStencil, grad []float64) float64 {
	value := t.Eval(&s.Stencil)
	grad = grad[:s.rank]
	for i := range grad {
		grad[i] = 0
	}
	offs := s.off[:1<<s.rank]
	for k, i := range s.live[:s.nLive] {
		wi, width := &s.wi[k], s.width[i]
		var g float64
		for c, off := range offs {
			g += wi[c] * t.Data[off] / width
		}
		grad[i] = g
	}
	return value
}

// SameGrid reports whether a and b have the same breakpoints on every axis
// (compared bit for bit; axis names are ignored), so a Stencil located on
// one evaluates the other exactly as the other's own At/Grad would.
func SameGrid(a, b *Table) bool {
	if len(a.Axes) != len(b.Axes) {
		return false
	}
	for i := range a.Axes {
		pa, pb := a.Axes[i].Points, b.Axes[i].Points
		if len(pa) != len(pb) {
			return false
		}
		for k := range pa {
			if math.Float64bits(pa[k]) != math.Float64bits(pb[k]) {
				return false
			}
		}
	}
	return true
}

// At evaluates the table at the given coordinates with clamped multilinear
// interpolation. The number of coordinates must equal the rank. A NaN
// coordinate yields NaN.
func (t *Table) At(coords ...float64) float64 {
	var s Stencil
	t.Locate(&s, coords)
	return t.Eval(&s)
}

// Grad evaluates the table and its gradient with respect to each coordinate
// at the given point. Inside a cell the gradient is the exact derivative of
// the multilinear interpolant; at clamped coordinates the corresponding
// partial derivative is zero (the interpolant is constant beyond the span),
// matching how the Newton solver should see a saturated table. A NaN
// coordinate yields a NaN value and a NaN gradient.
func (t *Table) Grad(coords ...float64) (float64, []float64) {
	var s GradStencil
	t.LocateGrad(&s, coords)
	grad := make([]float64, len(coords))
	return t.EvalGrad(&s, grad), grad
}

// At1 is a convenience accessor for rank-1 tables.
func (t *Table) At1(x float64) float64 { return t.At(x) }

// At2 is a convenience accessor for rank-2 tables.
func (t *Table) At2(x, y float64) float64 { return t.At(x, y) }

// At4 is a convenience accessor for rank-4 tables (the MCSM storage rank).
func (t *Table) At4(a, b, n, o float64) float64 { return t.At(a, b, n, o) }

// Map returns a new table over the same axes with fn applied to every
// sample.
func (t *Table) Map(fn func(v float64) float64) *Table {
	out := &Table{Axes: t.Axes, Data: make([]float64, len(t.Data))}
	out.initStrides()
	for i, v := range t.Data {
		out.Data[i] = fn(v)
	}
	return out
}

// Combine returns a new table c with c[i] = fn(a[i], b[i]). The tables must
// share identical axis geometry.
func Combine(a, b *Table, fn func(x, y float64) float64) (*Table, error) {
	if a.Rank() != b.Rank() || a.Size() != b.Size() {
		return nil, errors.New("table: combine shape mismatch")
	}
	for i := range a.Axes {
		if len(a.Axes[i].Points) != len(b.Axes[i].Points) {
			return nil, errors.New("table: combine axis mismatch")
		}
	}
	out := &Table{Axes: a.Axes, Data: make([]float64, len(a.Data))}
	out.initStrides()
	for i := range a.Data {
		out.Data[i] = fn(a.Data[i], b.Data[i])
	}
	return out, nil
}

// MinMax returns the smallest and largest stored samples.
func (t *Table) MinMax() (min, max float64) {
	min, max = math.Inf(1), math.Inf(-1)
	for _, v := range t.Data {
		if v < min {
			min = v
		}
		if v > max {
			max = v
		}
	}
	return min, max
}
