package csm

import (
	"fmt"
	"math"

	"mcsm/internal/cells"
	"mcsm/internal/table"
	"mcsm/internal/wave"
)

// fillReceiverCaps characterizes the input (receiver) capacitances CA/CB of
// Eq. 3: the loading a cell presents to its driver. Per §3.3 these are kept
// input-voltage-dependent only — the driver of a net cannot know its
// fanouts' output voltages — so the extraction averages over a secondary
// grid of the other input and the output voltage. The internal node is left
// free, as it is in a real receiving cell.
func fillReceiverCaps(m *Model, tech cells.Tech, spec cells.Spec, cfg Config) error {
	h, err := newHarness(tech, spec, m.Inputs, false, cfg.Fast)
	if err != nil {
		return err
	}
	nIn := len(m.Inputs)
	lo, hi := -m.DeltaV, m.Vdd+m.DeltaV

	// Secondary sweep: the other modeled inputs and the output voltage.
	secAxes := make([]table.Axis, 0, nIn)
	for j := 0; j < nIn-1; j++ {
		secAxes = append(secAxes, table.Uniform("sec", 0, m.Vdd, cfg.GridCap))
	}
	secAxes = append(secAxes, table.Uniform("out", 0, m.Vdd, cfg.GridCap))

	m.CIn = make([]*table.Table, nIn)
	m.CPin = make([]*table.Table, nIn)
	for i := 0; i < nIn; i++ {
		axis := table.Uniform(m.Inputs[i], lo, hi, cfg.GridCap)
		tbl, err := table.New(axis)
		if err != nil {
			return err
		}
		tblPin, err := table.New(axis)
		if err != nil {
			return err
		}
		samples := axis.Points
		acc := make([]float64, len(samples))
		accPin := make([]float64, len(samples))
		count := 0
		if cfg.DirectCaps {
			err = receiverDirectPass(m, h, i, samples, secAxes, acc, accPin, &count)
		} else {
			err = receiverTransientPass(m, h, cfg, i, samples, secAxes, lo, hi, acc, accPin, &count)
		}
		if err != nil {
			return err
		}
		for s := range samples {
			tbl.Set(math.Max(acc[s]/float64(count), capFloor), s)
			tblPin.Set(math.Max(accPin[s]/float64(count), capFloor), s)
		}
		m.CIn[i] = tbl
		m.CPin[i] = tblPin
	}
	return nil
}

// receiverTransientPass accumulates CA(v) samples from input-ramp
// transients (Eq. 3 with the output held at DC, so i_A = (CA+CmA)·dVA/dt).
func receiverTransientPass(m *Model, h *harness, cfg Config, i int, samples []float64, secAxes []table.Axis, lo, hi float64, acc, accPin []float64, count *int) error {
	nIn := len(m.Inputs)
	pad := (hi - lo) / float64(len(samples)-1)
	vin := make([]float64, nIn)
	coords := make([]float64, 0, m.rank())
	vnAt := make([]float64, len(samples))
	// The Miller branches subtracted below read the same coordinates:
	// locate once per grid.
	var gs gridSet
	cmT := gs.bind(m.Cm[i])
	var cmnT lookup
	if m.HasInternalMiller() {
		cmnT = gs.bind(m.CmN[i])
	}

	return forEachCombo(secAxes, -1, func(_ []int, sec []float64) error {
		k := 0
		for j := 0; j < nIn; j++ {
			if j == i {
				continue
			}
			vin[j] = sec[k]
			k++
		}
		vo := sec[len(sec)-1]

		// DC pre-pass: learn the floating internal-node voltage at each
		// sample point, needed to evaluate the Miller table that is
		// subtracted from the measured total.
		for s, v := range samples {
			vin[i] = v
			h.setPoint(vin, 0, vo)
			x, err := h.dcSolve()
			if err != nil {
				return fmt.Errorf("csm: receiver DC at %v: %w", vin, err)
			}
			if h.nNode != 0 {
				vnAt[s] = x[int(h.nNode)-1]
			}
		}
		vin[i] = lo
		h.setPoint(vin, 0, vo)
		for _, slew := range cfg.SlewTimes {
			slope := (hi - lo) / slew
			iw, timeOf, err := h.runRamp(rampSpec{
				src: h.srcIn[i], stim: h.stimIn[i],
				lo: lo, hi: hi, pad: pad,
				slope: slope, tFlat: settleTime,
			}, h.srcIn[i], cfg.TranDt)
			if err != nil {
				return fmt.Errorf("csm: receiver ramp %s: %w", m.Inputs[i], err)
			}
			for s, v := range samples {
				// The input source reads the cell's injection into the pin;
				// ramping the pin up makes its capacitances draw −C_total·s.
				total := -iw.At(timeOf(v)) / slope
				accPin[s] += math.Max(total, 0) // Eq. 3 total pin capacitance
				vin[i] = v
				coords = m.Coords(coords, vin, vnAt[s], vo)
				gs.locate(coords)
				// Couplings carried as explicit model branches must not be
				// double-counted in the instantiated-cell residual CIn.
				branch := cmT.at()
				if m.HasInternalMiller() {
					branch += cmnT.at()
				}
				acc[s] += math.Max(total-branch, 0)
			}
			wave.Release(&iw)
			*count++
		}
		return nil
	})
}

// receiverDirectPass accumulates operating-point input capacitances for the
// direct extraction mode.
func receiverDirectPass(m *Model, h *harness, i int, samples []float64, secAxes []table.Axis, acc, accPin []float64, count *int) error {
	nIn := len(m.Inputs)
	vin := make([]float64, nIn)
	return forEachCombo(secAxes, -1, func(_ []int, sec []float64) error {
		k := 0
		for j := 0; j < nIn; j++ {
			if j == i {
				continue
			}
			vin[j] = sec[k]
			k++
		}
		vo := sec[len(sec)-1]
		for s, v := range samples {
			vin[i] = v
			h.setPoint(vin, 0, vo)
			x, err := h.dcSolve()
			if err != nil {
				return fmt.Errorf("csm: direct receiver DC: %w", err)
			}
			lp := lumpDeviceCaps(h, x)
			cin := lp.inStatic[i]
			if !m.HasInternalMiller() {
				// Without the extension the input↔N coupling has no branch
				// of its own and loads the pin directly.
				cin += lp.inN[i]
			}
			acc[s] += cin
			accPin[s] += lp.inStatic[i] + lp.inN[i] + lp.inOut[i]
		}
		*count++
		return nil
	})
}
