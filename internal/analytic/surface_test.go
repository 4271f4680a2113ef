package analytic

import (
	"math"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

// TestCopySurfaceComposesPhasesSerially: each cell of the analytic copy
// curve is the serial composition of its load and store phases,
// 1/bw = 1/load + 1/store, with the stride on the side stridedLoads
// names; the curve is one row at ws, tagged analytic, under the
// calibration hash.
func TestCopySurfaceComposesPhasesSerially(t *testing.T) {
	cal := machine.NewT3E(1).Calibration()
	m := New(cal)
	ws := 8 * units.MB
	strides := []int{1, 4, 16, 64}
	for _, stridedLoads := range []bool{true, false} {
		s := CopySurface(cal, ws, strides, stridedLoads)
		if len(s.WorkingSets) != 1 || s.WorkingSets[0] != ws || s.CalHash != cal.Hash() {
			t.Fatalf("copy surface axes %v, hash %x; want one row at %v under %x", s.WorkingSets, s.CalHash, ws, cal.Hash())
		}
		for si, st := range strides {
			loads, stores := st, 1
			if !stridedLoads {
				loads, stores = 1, st
			}
			a, b := float64(m.LoadBW(ws, loads)), float64(m.LoadBW(ws, stores))
			want := 1 / (1/a + 1/b)
			if got := float64(s.BW[0][si]); math.Abs(got-want) > 1e-6*want {
				t.Errorf("stridedLoads=%v stride %d: %v B/s, want %v", stridedLoads, st, got, want)
			}
			if s.SourceAt(0, si) != surface.Analytic {
				t.Errorf("stridedLoads=%v stride %d tagged %v, want analytic", stridedLoads, st, s.SourceAt(0, si))
			}
		}
	}
}
