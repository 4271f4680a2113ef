package store

import (
	"encoding/binary"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
)

// These tests pin the store's corruption accounting: every degraded
// path — unreadable bytes, decode failure, retired codec version,
// stale calibration, grid drift — must tally exactly the counters the
// paper-facing reports read (misses, quarantines, stale drops). A
// silently dropped Inc (the dropcounter mutation class) makes the
// store look healthier than it is.

// plantSurface opens a cold store over dir and swaps the on-disk
// artifact for k with raw, fixing the manifest checksum so the bytes
// pass verification and reach the decode/validation paths.
func plantSurface(t *testing.T, dir string, k Key, raw []byte) *Store {
	t.Helper()
	st := openTest(t, dir)
	idx, ok := st.byKey[k]
	if !ok {
		t.Fatalf("planted key is not in the manifest")
	}
	file := filepath.Join(dir, st.man.Entries[idx].File)
	if err := os.WriteFile(file, raw, 0o644); err != nil {
		t.Fatalf("planting artifact: %v", err)
	}
	st.man.Entries[idx].Checksum = Checksum(raw)
	return st
}

// seedSurface puts one surface and returns its key, surface, and
// calibration.
func seedSurface(t *testing.T, dir string) (Key, *surface.Surface, machine.Calibration) {
	t.Helper()
	cal := machine.NewT3D(1).Calibration()
	s := testSurface(cal)
	k := testKey(cal)
	st := openTest(t, dir)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	return k, s, cal
}

func TestStatsUnreadableArtifactQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, _, _ := seedSurface(t, dir)
	st := openTest(t, dir) // cold LRU: the read must go to disk
	idx := st.byKey[k]
	if err := os.Remove(filepath.Join(dir, st.man.Entries[idx].File)); err != nil {
		t.Fatalf("removing artifact: %v", err)
	}
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a deleted artifact")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.DiskHits != 0 {
		t.Errorf("unreadable accounting: %+v, want one miss and one quarantine", stats)
	}
	if st.Len() != 0 {
		t.Errorf("manifest still indexes the dead entry (len %d)", st.Len())
	}
}

func TestStatsUndecodableSurfaceQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, _, _ := seedSurface(t, dir)
	st := plantSurface(t, dir, k, []byte("not a surface snapshot"))
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served undecodable bytes")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
		t.Errorf("undecodable accounting: %+v, want one miss and one quarantine", stats)
	}
}

func TestStatsStaleSurfaceCountsStaleDropAndMiss(t *testing.T) {
	dir := t.TempDir()
	k, s, _ := seedSurface(t, dir)
	stale := cloneSurface(s)
	stale.CalHash = s.CalHash + 1 // a different calibration's artifact
	raw, err := stale.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a stale-calibration artifact")
	}
	stats := st.Stats()
	if stats.StaleDrops != 1 || stats.Misses != 1 || stats.Quarantined != 1 {
		t.Errorf("stale accounting: %+v, want one stale drop, miss, and quarantine", stats)
	}
}

func TestStatsGridDriftQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, s, cal := seedSurface(t, dir)
	drifted := surface.New(cal.Machine, s.Title, []int{1, 2, 3}, s.WorkingSets)
	drifted.CalHash = s.CalHash
	raw, err := drifted.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served an artifact with a drifted grid")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
		t.Errorf("grid drift accounting: %+v, want one miss and one quarantine", stats)
	}
}

// seedCurve puts one fixed-working-set copy curve — a one-row
// surface — and returns its key and surface.
func seedCurve(t *testing.T, dir string) (Key, *surface.Surface) {
	t.Helper()
	cal := machine.NewT3E(1).Calibration()
	c := testCurve(cal)
	k := SurfaceKey(cal, PatternCopy, "sl", 0, 0, c.Strides, c.WorkingSets)
	st := openTest(t, dir)
	if err := st.PutSurface(k, c); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	return k, c
}

func TestStatsUndecodableCurveQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, _ := seedCurve(t, dir)
	st := plantSurface(t, dir, k, []byte("not a curve snapshot"))
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served undecodable bytes")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
		t.Errorf("undecodable curve accounting: %+v, want one miss and one quarantine", stats)
	}
}

func TestStatsStaleCurveCountsStaleDropAndMiss(t *testing.T) {
	dir := t.TempDir()
	k, c := seedCurve(t, dir)
	stale := cloneSurface(c)
	stale.CalHash = c.CalHash + 1
	raw, err := stale.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a stale-calibration curve")
	}
	stats := st.Stats()
	if stats.StaleDrops != 1 || stats.Misses != 1 || stats.Quarantined != 1 {
		t.Errorf("stale curve accounting: %+v, want one stale drop, miss, and quarantine", stats)
	}
}

// TestStatsCurveGridMismatchQuarantinesAndMisses: a one-row artifact
// whose working set (or stride axis) does not match its key's grid is
// never served — the grid signature is checked for every artifact,
// curves included.
func TestStatsCurveGridMismatchQuarantinesAndMisses(t *testing.T) {
	for name, drift := range map[string]func(c *surface.Surface) *surface.Surface{
		"working set": func(c *surface.Surface) *surface.Surface {
			d := cloneSurface(c)
			d.WorkingSets[0] *= 2
			return d
		},
		"strides": func(c *surface.Surface) *surface.Surface {
			d := surface.New(c.Machine, c.Title, []int{1, 2, 8}, c.WorkingSets)
			d.CalHash = c.CalHash
			return d
		},
	} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			k, c := seedCurve(t, dir)
			raw, err := drift(c).MarshalBinary()
			if err != nil {
				t.Fatalf("marshal: %v", err)
			}
			st := plantSurface(t, dir, k, raw)
			if _, ok := st.GetSurface(k); ok {
				t.Fatal("GetSurface served a curve whose grid does not match its key")
			}
			stats := st.Stats()
			if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
				t.Errorf("curve grid mismatch accounting: %+v, want one miss and one quarantine", stats)
			}
			if st.Len() != 0 {
				t.Errorf("manifest still indexes the mismatched curve (len %d)", st.Len())
			}
		})
	}
}

// TestStatsV1SnapshotQuarantinesAndMisses: the SURF v1 upgrade path is
// gone, so a v1 artifact under a current key is a quarantined miss —
// re-simulated by the caller, never a crash.
func TestStatsV1SnapshotQuarantinesAndMisses(t *testing.T) {
	dir := t.TempDir()
	k, s, _ := seedSurface(t, dir)
	raw, err := s.MarshalBinary()
	if err != nil {
		t.Fatalf("marshal: %v", err)
	}
	// The v1 layout: version 1, no Source plane after the BW cells.
	raw = raw[:len(raw)-len(s.WorkingSets)*len(s.Strides)]
	binary.LittleEndian.PutUint16(raw[4:], 1)
	st := plantSurface(t, dir, k, raw)
	if _, ok := st.GetSurface(k); ok {
		t.Fatal("GetSurface served a v1 snapshot")
	}
	stats := st.Stats()
	if stats.Misses != 1 || stats.Quarantined != 1 || stats.StaleDrops != 0 {
		t.Errorf("v1 snapshot accounting: %+v, want one miss and one quarantine", stats)
	}
}
