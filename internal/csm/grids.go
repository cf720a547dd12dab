package csm

import "mcsm/internal/table"

// gridSet shares table interpolation across a model's tables: tables whose
// axes carry the same breakpoints (table.SameGrid — decoded artifacts do
// not share axis slices, so equality is on values) share one located
// stencil, located once per coordinate vector. Each lookup then evaluates
// bit-identically to its table's own At/Grad.
//
// A characterized model has two grids — the current grid (Io, IN) and the
// capacitance grid (Cm, Co, CN, CmN, CmNO) — so a Newton step locates twice
// instead of once per table.
type gridSet struct {
	grids []*table.Table       // the first table bound on each distinct grid
	sts   []*table.GradStencil // one per grid; serves value and gradient reads
}

// lookup is one table bound to its grid's stencil in a gridSet.
type lookup struct {
	t  *table.Table
	st *table.GradStencil
}

// bind adds t to the set, sharing the stencil of an equal grid already
// bound. A nil table yields the zero lookup, which must not be read.
func (gs *gridSet) bind(t *table.Table) lookup {
	if t == nil {
		return lookup{}
	}
	for g, lead := range gs.grids {
		if table.SameGrid(lead, t) {
			return lookup{t, gs.sts[g]}
		}
	}
	st := new(table.GradStencil)
	gs.grids = append(gs.grids, t)
	gs.sts = append(gs.sts, st)
	return lookup{t, st}
}

// bindAll binds every table of ts.
func (gs *gridSet) bindAll(ts []*table.Table) []lookup {
	ls := make([]lookup, len(ts))
	for i, t := range ts {
		ls[i] = gs.bind(t)
	}
	return ls
}

// locate positions every grid's stencil at coords for value reads.
func (gs *gridSet) locate(coords []float64) {
	for g, lead := range gs.grids {
		lead.Locate(&gs.sts[g].Stencil, coords)
	}
}

// locateGrad positions every grid's stencil at coords for value and
// gradient reads.
func (gs *gridSet) locateGrad(coords []float64) {
	for g, lead := range gs.grids {
		lead.LocateGrad(gs.sts[g], coords)
	}
}

// at reads the table's value at the located coordinates.
func (l lookup) at() float64 { return l.t.Eval(&l.st.Stencil) }

// grad reads the table's value and writes its gradient into dst, at
// coordinates located by locateGrad.
func (l lookup) grad(dst []float64) float64 { return l.t.EvalGrad(l.st, dst) }
