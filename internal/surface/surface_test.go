package surface

import (
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/units"
)

func grid() *Surface {
	s := New("test", "load", []int{1, 4, 16}, []units.Bytes{units.KB, units.MB})
	// ws=1K row: 1000, 800, 600; ws=1M row: 100, 80, 60.
	vals := [][]float64{{1000, 800, 600}, {100, 80, 60}}
	for wi := range vals {
		for si := range vals[wi] {
			s.Set(wi, si, units.MBps(vals[wi][si]))
		}
	}
	return s
}

func TestAtExactPoints(t *testing.T) {
	s := grid()
	if got := s.At(units.KB, 4).MBps(); got != 800 {
		t.Errorf("At(1K,4) = %v, want 800", got)
	}
	if got := s.At(units.MB, 16).MBps(); got != 60 {
		t.Errorf("At(1M,16) = %v, want 60", got)
	}
}

func TestAtInterpolatesAndClamps(t *testing.T) {
	s := grid()
	mid := s.At(units.KB, 2).MBps() // between 1000 and 800 in log space
	if mid <= 800 || mid >= 1000 {
		t.Errorf("interpolated value %v outside (800,1000)", mid)
	}
	if got := s.At(units.KB/4, 1).MBps(); got != 1000 {
		t.Errorf("below-grid ws should clamp: %v", got)
	}
	if got := s.At(16*units.MB, 64).MBps(); got != 60 {
		t.Errorf("above-grid point should clamp: %v", got)
	}
}

func TestPlateau(t *testing.T) {
	s := grid()
	if got := s.Plateau(units.KB, units.KB, 1, 16).MBps(); got != 800 {
		t.Errorf("plateau = %v, want mean 800", got)
	}
	if got := s.Plateau(units.GB, units.GB, 1, 1); got != 0 {
		t.Errorf("empty plateau should be 0, got %v", got)
	}
}

func TestMax(t *testing.T) {
	if got := grid().Max().MBps(); got != 1000 {
		t.Errorf("Max = %v", got)
	}
}

func TestCSVAndASCII(t *testing.T) {
	s := grid()
	csv := s.CSV()
	if !strings.Contains(csv, "1000.0") || !strings.Contains(csv, "ws\\stride") {
		t.Errorf("CSV malformed:\n%s", csv)
	}
	art := s.ASCII()
	if !strings.Contains(art, "peak 1000") {
		t.Errorf("ASCII missing peak:\n%s", art)
	}
}

// curve builds a one-row surface — a fixed-working-set stride sweep.
func curve(ws units.Bytes, strides []int, bw []units.BytesPerSec) *Surface {
	c := New("m", "t", strides, []units.Bytes{ws})
	copy(c.BW[0], bw)
	return c
}

func TestCurveAtAndTable(t *testing.T) {
	c := curve(8*units.MB, []int{1, 8, 64}, []units.BytesPerSec{units.MBps(100), units.MBps(50), units.MBps(20)})
	// The working set of a one-row surface does not matter.
	for _, ws := range []units.Bytes{units.KB, 8 * units.MB, units.GB} {
		if got := c.At(ws, 8).MBps(); got != 50 {
			t.Errorf("At(%v, 8) = %v", ws, got)
		}
	}
	between := c.At(8*units.MB, 3).MBps()
	if between <= 50 || between >= 100 {
		t.Errorf("interpolated curve value %v outside (50,100)", between)
	}
	want := "m — t\nstride   MByte/s\n     1     100.0\n     8      50.0\n    64      20.0\n"
	if got := c.Table(); got != want {
		t.Errorf("Table =\n%s\nwant\n%s", got, want)
	}
}

// curveAt is the retired fixed-working-set curve's interpolation,
// kept verbatim as the reference a one-row surface must reproduce.
func curveAt(strides []int, bw []units.BytesPerSec, stride int) units.BytesPerSec {
	if len(strides) == 0 {
		return 0
	}
	i, f := locate(float64(stride), strideAxis(strides))
	b0 := float64(bw[i])
	b1 := float64(bw[min(i+1, len(bw)-1)])
	return units.BytesPerSec(b0*(1-f) + b1*f)
}

// TestOneRowAtMatchesCurveAt: folding the curve type into a one-row
// surface must not move a single bit of any planner or figure value.
func TestOneRowAtMatchesCurveAt(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	for n := 0; n < 500; n++ {
		strides := []int{1 + rng.Intn(3)}
		for len(strides) < 1+rng.Intn(20) {
			strides = append(strides, strides[len(strides)-1]+1+rng.Intn(40))
		}
		bw := make([]units.BytesPerSec, len(strides))
		for i := range bw {
			bw[i] = units.BytesPerSec(rng.Float64() * 1e9)
		}
		c := curve(units.Bytes(1+rng.Intn(1<<27)), strides, bw)
		for k := 0; k < 100; k++ {
			stride := rng.Intn(strides[len(strides)-1] + 10)
			ws := units.Bytes(rng.Intn(1 << 28))
			got, want := c.At(ws, stride), curveAt(strides, bw, stride)
			if math.Float64bits(float64(got)) != math.Float64bits(float64(want)) {
				t.Fatalf("curve %d: At(%v, %d) = %v, curve reference %v", n, ws, stride, got, want)
			}
		}
	}
}

func TestWorkingSets(t *testing.T) {
	ws := WorkingSets(units.KB, 8*units.KB)
	if len(ws) != 4 || ws[0] != units.KB || ws[3] != 8*units.KB {
		t.Errorf("WorkingSets = %v", ws)
	}
}

func TestPaperAxes(t *testing.T) {
	if PaperStrides[0] != 1 || PaperStrides[len(PaperStrides)-1] != 192 {
		t.Errorf("paper stride axis wrong: %v", PaperStrides)
	}
	if CopyStrides[len(CopyStrides)-1] != 64 {
		t.Errorf("copy stride axis should end at 64 (Figures 9-14)")
	}
}
