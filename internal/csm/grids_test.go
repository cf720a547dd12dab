package csm

import (
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"testing"

	"mcsm/internal/cells"
	"mcsm/internal/spice"
	"mcsm/internal/table"
	"mcsm/internal/wave"
)

// withNudgedGrid returns a copy of m whose Co table sits on its own grid:
// the same samples over axes with one interior breakpoint moved.
func withNudgedGrid(t *testing.T, m *Model) *Model {
	t.Helper()
	axes := make([]table.Axis, len(m.Co.Axes))
	for i, a := range m.Co.Axes {
		axes[i] = table.Axis{Name: a.Name, Points: append([]float64(nil), a.Points...)}
	}
	last := axes[len(axes)-1].Points
	if len(last) < 3 {
		t.Fatalf("output axis has %d points, need an interior one", len(last))
	}
	last[1] += 0.25 * (last[2] - last[1])
	co, err := table.New(axes...)
	if err != nil {
		t.Fatal(err)
	}
	copy(co.Data, m.Co.Data)
	m2 := *m
	m2.Co = co
	return &m2
}

// perTable binds a table to a stencil of its own, located on that table
// alone: exactly the evaluation its own At/Grad perform.
func perTable(gs *gridSet, t *table.Table) lookup {
	if t == nil {
		return lookup{}
	}
	st := new(table.GradStencil)
	gs.grids = append(gs.grids, t)
	gs.sts = append(gs.sts, st)
	return lookup{t, st}
}

func bitsEqual(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }

// TestCellGroupsTablesByGrid: the cell locates once per distinct grid —
// one current grid and one capacitance grid for a characterized model,
// also after a JSON round trip (decoded tables share no axis slices), and
// a second capacitance grid when one table's breakpoints differ.
func TestCellGroupsTablesByGrid(t *testing.T) {
	m := fixtureModel(t, "NAND2", KindMCSM)
	raw, err := json.Marshal(m)
	if err != nil {
		t.Fatal(err)
	}
	decoded := new(Model)
	if err := json.Unmarshal(raw, decoded); err != nil {
		t.Fatal(err)
	}
	nodes := []spice.Node{1, 2}
	for _, tc := range []struct {
		name           string
		m              *Model
		curGrids, caps int
	}{
		{"characterized", m, 1, 1},
		{"decoded", decoded, 1, 1},
		{"nudged Co grid", withNudgedGrid(t, m), 1, 2},
	} {
		c, err := NewCell("X", tc.m, nodes, 3, false)
		if err != nil {
			t.Fatal(err)
		}
		if got := len(c.cur.grids); got != tc.curGrids {
			t.Errorf("%s: %d current grids, want %d", tc.name, got, tc.curGrids)
		}
		if got := len(c.caps.grids); got != tc.caps {
			t.Errorf("%s: %d capacitance grids, want %d", tc.name, got, tc.caps)
		}
	}
}

// TestGridSetMatchesAtGrad: every table bound to a shared-grid set reads,
// at random in-span, breakpoint and out-of-span coordinates, the exact
// bits of its own At and Grad — on a model with two capacitance grids.
func TestGridSetMatchesAtGrad(t *testing.T) {
	m := withNudgedGrid(t, fixtureModel(t, "NAND2", KindMCSM))
	var gs gridSet
	tabs := append([]*table.Table{m.Io, m.IN, m.Co, m.CN, m.CmNO}, m.Cm...)
	tabs = append(tabs, m.CmN...)
	ls := gs.bindAll(tabs)
	if len(gs.grids) != 3 {
		t.Fatalf("%d grids, want 3 (current, capacitance, nudged Co)", len(gs.grids))
	}
	rng := rand.New(rand.NewSource(5))
	grad := make([]float64, m.rank())
	coords := make([]float64, m.rank())
	for q := 0; q < 500; q++ {
		for i := range coords {
			pts := m.Io.Axes[i].Points
			switch q % 4 {
			case 0:
				coords[i] = pts[rng.Intn(len(pts))]
			case 1:
				coords[i] = (rng.Float64()*1.6 - 0.3) * m.Vdd // beyond both rails
			default:
				coords[i] = rng.Float64() * m.Vdd
			}
		}
		gs.locateGrad(coords)
		for k, l := range ls {
			want, wantG := l.t.Grad(coords...)
			if v := l.at(); !bitsEqual(v, l.t.At(coords...)) || !bitsEqual(v, want) {
				t.Fatalf("table %d at %v: shared %v, own %v", k, coords, v, want)
			}
			if v := l.grad(grad); !bitsEqual(v, want) {
				t.Fatalf("table %d at %v: shared grad value %v, own %v", k, coords, v, want)
			}
			for i := range grad {
				if !bitsEqual(grad[i], wantG[i]) {
					t.Fatalf("table %d at %v: d/dx%d shared %v, own %v", k, coords, i, grad[i], wantG[i])
				}
			}
		}
	}
}

// TestSharedGridStageBitIdentical: a stage solved with shared-grid reads
// produces the same output and internal-node waveforms, bit for bit, as
// the same stage with every table located on its own (per-table At/Grad)
// — on a model whose capacitance tables sit on two grids.
func TestSharedGridStageBitIdentical(t *testing.T) {
	tech := cells.Default130()
	tm := cells.DefaultHistoryTiming()
	m := withNudgedGrid(t, fixtureModel(t, "NAND2", KindMCSM))
	wa, wb := nand2HistoryInputs(tech.Vdd, 2, tm)
	run := func(bind func(*gridSet, *table.Table) lookup) (out, vn wave.Waveform) {
		c, cell, outN, err := buildStage(m, []wave.Waveform{wa, wb}, CapLoad(cells.FanoutCap(tech, 2)))
		if err != nil {
			t.Fatal(err)
		}
		cell.bindTables(bind)
		res, err := spice.NewEngine(c, spice.DefaultOptions()).Run(0, tm.TEnd, 1e-12)
		if err != nil {
			t.Fatal(err)
		}
		return res.Wave(outN), res.AuxWave(cell.VNIndex())
	}
	shared, sharedVN := run((*gridSet).bind)
	own, ownVN := run(perTable)
	for _, p := range []struct {
		name   string
		got, w wave.Waveform
	}{{"out", shared, own}, {"VN", sharedVN, ownVN}} {
		if p.got.Len() != p.w.Len() {
			t.Fatalf("%s: %d samples, per-table %d", p.name, p.got.Len(), p.w.Len())
		}
		for i := 0; i < p.got.Len(); i++ {
			if !bitsEqual(p.got.T[i], p.w.T[i]) || !bitsEqual(p.got.V[i], p.w.V[i]) {
				t.Fatalf("%s sample %d: shared (%v, %v), per-table (%v, %v)",
					p.name, i, p.got.T[i], p.got.V[i], p.w.T[i], p.w.V[i])
			}
		}
	}
}

// stampFixture is a NAND2 MCSM cell on a four-unknown system (inputs,
// output, internal node) with a transient context prepared at a mid-swing
// operating point.
func stampFixture(m *Model) (*Cell, *spice.System, *spice.Context, error) {
	c, err := NewCell("X", m, []spice.Node{1, 2}, 3, true)
	if err != nil {
		return nil, nil, nil, err
	}
	c.SetAuxBase(3)
	x := []float64{0.4, 0.9, 0.7, 0.3}
	ctx := &spice.Context{
		Mode: spice.ModeTransient, Method: spice.Trapezoidal, Dt: 1e-12, SrcScale: 1,
		X: x, Xprev: append([]float64(nil), x...),
	}
	return c, spice.NewSystem(4), ctx, nil
}

// TestStampNaNIsSingular: a NaN coordinate reaching the cell's tables must
// not panic; it makes the linearized system non-finite, which the solver
// reports as ErrSingular. The same stamp at a finite point solves.
func TestStampNaNIsSingular(t *testing.T) {
	c, sys, ctx, err := stampFixture(fixtureModel(t, "NAND2", KindMCSM))
	if err != nil {
		t.Fatal(err)
	}
	ws := spice.NewSolveWorkspace(sys.N)
	solve := func() error {
		sys.Clear()
		c.BeginStep(ctx)
		c.Stamp(sys, ctx)
		sys.AddA(0, 0, 1) // the inputs are source-driven in a real stage
		sys.AddA(1, 1, 1)
		_, err := sys.SolveWith(ws)
		return err
	}
	if err := solve(); err != nil {
		t.Fatalf("finite stamp: %v", err)
	}
	for _, k := range []int{1, 3} { // an input node, the internal node
		saved := ctx.X[k]
		ctx.X[k] = math.NaN()
		if err := solve(); !errors.Is(err, spice.ErrSingular) {
			t.Errorf("NaN unknown %d: err = %v, want ErrSingular", k, err)
		}
		ctx.X[k] = saved
	}
}

// BenchmarkCellStampMCSM times one Newton step's cell work — BeginStep
// plus Stamp of a NAND2 MCSM on a prepared context. CI asserts it reports
// 0 allocs/op.
func BenchmarkCellStampMCSM(b *testing.B) {
	spec, err := cells.Get("NAND2")
	if err != nil {
		b.Fatal(err)
	}
	m, err := Characterize(cells.Default130(), spec, KindMCSM, CoarseConfig())
	if err != nil {
		b.Fatal(err)
	}
	c, sys, ctx, err := stampFixture(m)
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		sys.Clear()
		c.BeginStep(ctx)
		c.Stamp(sys, ctx)
	}
}
