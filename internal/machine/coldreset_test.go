package machine

import (
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// TestColdResetIdenticalSweepPoints is the machine-level regression
// test for the statereset fixes: ColdReset must erase every trace of
// the previous measurement, so remeasuring the same grid point gives
// the exact same bandwidth. This is the invariant the sweep engine
// relies on when it reorders or parallelizes grid points — a leak in
// any component reset (cache LRU clock, write-buffer open entry,
// DRAM page state, stream detector) breaks it.
func TestColdResetIdenticalSweepPoints(t *testing.T) {
	machines := []Machine{NewDEC8400(4), NewT3D(4), NewT3E(4)}
	for _, m := range machines {
		// A DRAM-resident strided point: sensitive to cache
		// replacement order, page-mode rows, and stream detection.
		first := loadPoint(m, 512*units.KB, 7)
		second := loadPoint(m, 512*units.KB, 7)
		if first != second {
			t.Errorf("%s: load point differs across ColdReset runs: %v then %v",
				m.Name(), first, second)
		}

		// A remote transfer: exercises engines, network, and the
		// partner node's memory system.
		measure := func() units.Time {
			m.ColdReset()
			partner := PreferredPartner(m)
			cp := access.CopyPattern{
				SrcBase: LocalBase(0), DstBase: LocalBase(partner),
				WorkingSet: 256 * units.KB, LoadStride: 1, StoreStride: 1,
			}
			el, err := m.Transfer(0, partner, cp, Options{Mode: Fetch})
			if err != nil {
				t.Fatalf("%s: transfer: %v", m.Name(), err)
			}
			return el
		}
		t1 := measure()
		t2 := measure()
		if t1 != t2 {
			t.Errorf("%s: transfer time differs across ColdReset runs: %v then %v",
				m.Name(), t1, t2)
		}
	}
}

// TestColdResetClearsProbeState extends the invariant to the probe
// subsystem: remeasuring a point yields an identical counter
// snapshot, and ColdReset leaves every counter at zero and the trace
// ring empty — no events or counts leak from one sweep point into the
// next.
func TestColdResetClearsProbeState(t *testing.T) {
	machines := []Machine{NewDEC8400(4), NewT3D(4), NewT3E(4)}
	for _, m := range machines {
		m.Probe().EnableTrace(0)

		counters := func() string {
			m.ColdReset()
			loadPoint(m, 512*units.KB, 7)
			return m.Probe().Registry().Snapshot().NonZero().Table()
		}
		first := counters()
		second := counters()
		if first != second {
			t.Errorf("%s: counter snapshot differs across ColdReset runs:\n%s\nthen\n%s",
				m.Name(), first, second)
		}
		if first == "" {
			t.Errorf("%s: measurement registered no counters at all", m.Name())
		}
		if m.Probe().Tracer().Len() == 0 {
			t.Errorf("%s: traced measurement captured no events", m.Name())
		}

		m.ColdReset()
		if left := m.Probe().Registry().Snapshot().NonZero(); len(left) != 0 {
			t.Errorf("%s: %d counters survive ColdReset, first %q",
				m.Name(), len(left), left[0].Name)
		}
		if n := m.Probe().Tracer().Len(); n != 0 {
			t.Errorf("%s: %d trace events survive ColdReset", m.Name(), n)
		}
	}
}

// BenchmarkColdReset times the reset the sweep engine runs before
// every grid point, on each modelled machine at the four-node size
// the figures use, after one small load point has warmed its caches.
func BenchmarkColdReset(b *testing.B) {
	for _, m := range []Machine{NewDEC8400(4), NewT3D(4), NewT3E(4)} {
		b.Run(m.Name(), func(b *testing.B) {
			loadPoint(m, 8*units.KB, 1)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				m.ColdReset()
			}
		})
	}
}
