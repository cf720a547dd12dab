package csm

import (
	"fmt"
	"math"

	"mcsm/internal/wave"
)

// SimulateExplicit integrates the stage with the paper's explicit update
// equations for a purely capacitive load CL.
//
// With this package's sign convention (Io/IN positive into the node), the
// paper's Eq. 4 and Eq. 5 read:
//
//	Vo(k+1) = Vo(k) + [CmA·ΔVA + CmB·ΔVB + Io(V)·Δt] / (CL + Co + CmA + CmB)
//	VN(k+1) = VN(k) + IN(V)·Δt / CN
//
// (the paper's io/IN arrows point into the cell, flipping their signs).
// All coefficients are table lookups at the current state V. The explicit
// path exists for fidelity to the paper and for the EXP-A3 integrator
// ablation; SimulateStage is the production (implicit) path.
func SimulateExplicit(m *Model, inputs []wave.Waveform, cl float64, start, stop, dt float64) (*StageResult, error) {
	if len(inputs) != len(m.Inputs) {
		return nil, fmt.Errorf("csm: %d input waveforms for %d-input model", len(inputs), len(m.Inputs))
	}
	if dt <= 0 || stop <= start {
		return nil, fmt.Errorf("csm: invalid explicit window [%g,%g] dt=%g", start, stop, dt)
	}
	vin0 := make([]float64, len(inputs))
	for i := range inputs {
		vin0[i] = inputs[i].At(start)
	}
	vn, vo, err := InitialState(m, vin0)
	if err != nil {
		return nil, err
	}

	n := int(math.Ceil((stop-start)/dt)) + 1
	ts := make([]float64, 0, n)
	vos := make([]float64, 0, n)
	vns := make([]float64, 0, n)
	ts = append(ts, start)
	vos = append(vos, vo)
	vns = append(vns, vn)

	vin := make([]float64, len(inputs))
	vinNext := make([]float64, len(inputs))
	coords := make([]float64, 0, m.rank())
	// Every coefficient of a step reads the same coordinates: locate once
	// per grid.
	var gs gridSet
	ioT, coT, inT, cnT, cmnoT := gs.bind(m.Io), gs.bind(m.Co), gs.bind(m.IN), gs.bind(m.CN), gs.bind(m.CmNO)
	cmT, cmnT := gs.bindAll(m.Cm), gs.bindAll(m.CmN)
	for t := start; t < stop-dt*1e-9; {
		tNext := t + dt
		if tNext > stop {
			tNext = stop
		}
		h := tNext - t
		for i := range inputs {
			vin[i] = inputs[i].At(t)
			vinNext[i] = inputs[i].At(tNext)
		}
		coords = m.Coords(coords, vin, vn, vo)
		gs.locate(coords)

		io := ioT.at()
		co := coT.at()
		den := cl + co
		num := io * h
		for i := range inputs {
			cm := cmT[i].at()
			den += cm
			num += cm * (vinNext[i] - vin[i])
		}

		voNext, vnNext := vo, vn
		switch {
		case m.HasInternalMiller():
			// Extended coupled update: the output and internal-node
			// equations share the CmNO branch, giving a 2×2 linear system
			// per step (still explicit in the table lookups):
			//   (CL+Co+ΣCm+CmNO)·ΔVo − CmNO·ΔVN = ΣCm·ΔVin + Io·Δt
			//   −CmNO·ΔVo + (CN+ΣCmN+CmNO)·ΔVN = ΣCmN·ΔVin + IN·Δt
			iN := inT.at()
			cn := cnT.at()
			cmno := cmnoT.at()
			a11 := den + cmno
			a22 := cn + cmno
			b1 := num
			b2 := iN * h
			for i := range inputs {
				cmn := cmnT[i].at()
				a22 += cmn
				b2 += cmn * (vinNext[i] - vin[i])
			}
			det := a11*a22 - cmno*cmno
			if det <= 0 {
				det = capFloor * capFloor
			}
			voNext = vo + (b1*a22+b2*cmno)/det
			vnNext = vn + (b2*a11+b1*cmno)/det
		case m.Kind == KindMCSM:
			// The paper's decoupled Eq. 4 / Eq. 5.
			iN := inT.at()
			cn := cnT.at()
			if cn < capFloor {
				cn = capFloor
			}
			voNext = vo + num/den
			vnNext = vn + iN*h/cn
		default:
			voNext = vo + num/den
		}

		vo, vn, t = voNext, vnNext, tNext
		ts = append(ts, t)
		vos = append(vos, vo)
		vns = append(vns, vn)
	}

	outW, err := wave.New(ts, vos)
	if err != nil {
		return nil, err
	}
	sr := &StageResult{Out: outW}
	if m.Kind == KindMCSM {
		vnW, err := wave.New(append([]float64(nil), ts...), vns)
		if err != nil {
			return nil, err
		}
		sr.VN = vnW
	}
	return sr, nil
}

// InitialState solves the model's DC equilibrium (Io = 0, and IN = 0 for
// MCSM) at the given input voltages by alternating 1-D bisections on the
// monotone table slices. It returns the settled internal and output
// voltages used to start an explicit integration.
func InitialState(m *Model, vin []float64) (vn, vo float64, err error) {
	if len(vin) != len(m.Inputs) {
		return 0, 0, fmt.Errorf("csm: %d input voltages for %d-input model", len(vin), len(m.Inputs))
	}
	lo, hi := -m.DeltaV, m.Vdd+m.DeltaV
	vn, vo = m.Vdd/2, m.Vdd/2
	coords := make([]float64, 0, m.rank())

	fIo := func(v float64) float64 {
		coords = m.Coords(coords, vin, vn, v)
		return m.Io.At(coords...)
	}
	fIN := func(v float64) float64 {
		coords = m.Coords(coords, vin, v, vo)
		return m.IN.At(coords...)
	}
	for iter := 0; iter < 40; iter++ {
		voNew := bisectZero(fIo, lo, hi)
		vnNew := vn
		if m.Kind == KindMCSM {
			vnNew = bisectZero(fIN, lo, hi)
		}
		done := math.Abs(voNew-vo) < 1e-6 && math.Abs(vnNew-vn) < 1e-6
		vo, vn = voNew, vnNew
		if done {
			return vn, vo, nil
		}
	}
	return vn, vo, nil
}

// bisectZero finds a zero of a decreasing-through-zero function on [lo,hi].
// CMOS output/internal currents decrease monotonically with the node
// voltage, so a sign change brackets the equilibrium; when no sign change
// exists the closer endpoint is returned (node pinned at a rail).
func bisectZero(f func(float64) float64, lo, hi float64) float64 {
	flo, fhi := f(lo), f(hi)
	if flo == 0 {
		return lo
	}
	if fhi == 0 {
		return hi
	}
	if flo < 0 && fhi < 0 {
		// Discharging everywhere: settles at the low end.
		return lo
	}
	if flo > 0 && fhi > 0 {
		return hi
	}
	for i := 0; i < 80; i++ {
		mid := (lo + hi) / 2
		fm := f(mid)
		if fm == 0 {
			return mid
		}
		// f decreases from positive (charging) to negative (discharging).
		if (flo > 0) == (fm > 0) {
			lo, flo = mid, fm
		} else {
			hi, fhi = mid, fm
		}
	}
	return (lo + hi) / 2
}
