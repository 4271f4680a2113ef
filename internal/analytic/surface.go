package analytic

import (
	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// LoadSurface computes the full analytic load surface — the same grid
// bench.LoadSurface simulates, in closed form. Machine, title, and
// axes match the simulated artifact so the two can be diffed cell by
// cell; every cell is tagged Analytic and the calibration hash is
// stamped.
func LoadSurface(cal machine.Calibration, strides []int, wss []units.Bytes) *surface.Surface {
	m := New(cal)
	s := surface.New(cal.Machine, "local load bandwidth", strides, wss)
	s.CalHash = cal.Hash()
	for wi, ws := range wss {
		for si, st := range strides {
			s.Set(wi, si, m.LoadBW(ws, st))
			s.SetSource(wi, si, surface.Analytic)
		}
	}
	return s
}

// TransferSurface computes the full analytic remote-transfer surface
// matching bench.TransferSurface's grid and title.
func TransferSurface(cal machine.Calibration, mode machine.Mode, strides []int, wss []units.Bytes) (*surface.Surface, error) {
	m := New(cal)
	s := surface.New(cal.Machine, "remote transfer bandwidth, "+mode.String(), strides, wss)
	s.CalHash = cal.Hash()
	for wi, ws := range wss {
		for si, st := range strides {
			bw, err := m.TransferBW(mode, ws, st)
			if err != nil {
				return nil, err
			}
			s.Set(wi, si, bw)
			s.SetSource(wi, si, surface.Analytic)
		}
	}
	return s, nil
}

// CopySurface computes the analytic local copy curve at working set
// ws — the one-row grid bench.CopyCurve simulates, with its title.
// The load and store phases do not overlap, so they compose serially
// (1/bw = 1/a + 1/b), both through the load model: a reference volume
// moves through each phase and the total time is measured.
// stridedLoads selects which side is strided.
func CopySurface(cal machine.Calibration, ws units.Bytes, strides []int, stridedLoads bool) *surface.Surface {
	m := New(cal)
	title := "local copy, contiguous loads/strided stores"
	if stridedLoads {
		title = "local copy, strided loads/contiguous stores"
	}
	s := surface.New(cal.Machine, title, strides, []units.Bytes{ws})
	s.CalHash = cal.Hash()
	const n = units.MB
	for si, st := range strides {
		loads, stores := st, 1
		if !stridedLoads {
			loads, stores = 1, st
		}
		a, b := m.LoadBW(ws, loads), m.LoadBW(ws, stores)
		if a > 0 && b > 0 {
			s.Set(0, si, units.BW(n, units.TimeFor(n, a)+units.TimeFor(n, b)))
		}
		s.SetSource(0, si, surface.Analytic)
	}
	return s
}
