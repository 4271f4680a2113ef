package bench

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"repro/internal/machine"
	"repro/internal/store"
	"repro/internal/surface"
	"repro/internal/sweep"
	"repro/internal/units"
)

var (
	intStrides = []int{1, 4, 16}
	intWSS     = []units.Bytes{4 * units.KB, 64 * units.KB, 512 * units.KB}
)

func t3dPool(t *testing.T, dir string) *sweep.Pool {
	t.Helper()
	p := sweep.NewPool(func() machine.Machine { return machine.NewT3D(4) }, 1)
	if dir != "" {
		st, err := store.Open(dir, store.Options{Logf: t.Logf})
		if err != nil {
			t.Fatal(err)
		}
		p.SetStore(st)
	}
	return p
}

func surfBytes(t *testing.T, s *surface.Surface) []byte {
	t.Helper()
	b, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestStoreBackedByteIdentical is the store's core contract: a
// store-backed sweep — cold (miss, write-back), warm (whole-surface
// serve), or completing a pruned artifact cell by cell — produces
// exactly the bytes of a storeless full sweep.
func TestStoreBackedByteIdentical(t *testing.T) {
	want := surfBytes(t, LoadSurface(t3dPool(t, ""), 0, intStrides, intWSS))

	dir := t.TempDir()
	cold := surfBytes(t, LoadSurface(t3dPool(t, dir), 0, intStrides, intWSS))
	if !bytes.Equal(cold, want) {
		t.Error("cold store-backed sweep differs from the storeless sweep")
	}
	// Fresh pool and store handle: the warm path reads from disk.
	warmPool := t3dPool(t, dir)
	warm := surfBytes(t, LoadSurface(warmPool, 0, intStrides, intWSS))
	if !bytes.Equal(warm, want) {
		t.Error("warm store-backed sweep differs from the storeless sweep")
	}
	if pts := warmPool.Points(); pts != 0 {
		t.Errorf("warm sweep simulated %d points, want 0", pts)
	}
	if stats := warmPool.Store().Stats(); stats.Hits() != 1 || stats.Misses != 0 {
		t.Errorf("warm stats = %+v, want one hit and no misses", stats)
	}

	// Pruned artifact completion: a -fast sweep leaves analytic
	// cells; the next full request simulates only those and must
	// still match the storeless bytes.
	dir2 := t.TempDir()
	prunedPool := t3dPool(t, dir2)
	pruned, simulated := LoadSurfacePruned(prunedPool, 0, intStrides, intWSS)
	if n := pruned.CountSource(surface.Analytic); n == 0 {
		t.Skip("pruner simulated every cell of this grid; completion path not exercised")
	}
	fullPool := t3dPool(t, dir2)
	completed := surfBytes(t, LoadSurface(fullPool, 0, intStrides, intWSS))
	if !bytes.Equal(completed, want) {
		t.Error("completing a pruned artifact differs from the storeless sweep")
	}
	if pts := int(fullPool.Points()); pts+simulated != len(intStrides)*len(intWSS) {
		t.Errorf("completion simulated %d points after pruned run's %d; together they should cover the %d-cell grid exactly once",
			pts, simulated, len(intStrides)*len(intWSS))
	}

	// And a pruned request against the completed artifact serves it
	// outright, upgraded to fully simulated.
	upgradedPool := t3dPool(t, dir2)
	upgraded, sim := LoadSurfacePruned(upgradedPool, 0, intStrides, intWSS)
	if sim != 0 {
		t.Errorf("pruned request after completion simulated %d cells, want 0", sim)
	}
	if !bytes.Equal(surfBytes(t, upgraded), want) {
		t.Error("upgraded pruned serve differs from the storeless sweep")
	}
}

// TestStoreBackedTransferByteIdentical covers the transfer sweep path
// (error-returning kernels) the same way.
func TestStoreBackedTransferByteIdentical(t *testing.T) {
	run := func(dir string) []byte {
		p := t3dPool(t, dir)
		s, err := TransferSurface(p, 0, machine.PreferredPartner(p.Machine()), machine.Fetch, intStrides, intWSS)
		if err != nil {
			t.Fatal(err)
		}
		return surfBytes(t, s)
	}
	want := run("")
	dir := t.TempDir()
	if cold := run(dir); !bytes.Equal(cold, want) {
		t.Error("cold transfer sweep differs from the storeless sweep")
	}
	if warm := run(dir); !bytes.Equal(warm, want) {
		t.Error("warm transfer sweep differs from the storeless sweep")
	}
}

// TestCorruptStoreEntryResimulated: bench-level robustness — a
// corrupted artifact quarantines and the sweep silently re-simulates,
// still byte-identical.
func TestCorruptStoreEntryResimulated(t *testing.T) {
	want := surfBytes(t, LoadSurface(t3dPool(t, ""), 0, intStrides, intWSS))
	dir := t.TempDir()
	LoadSurface(t3dPool(t, dir), 0, intStrides, intWSS)

	// Flip a bit in every artifact file.
	files, err := filepath.Glob(filepath.Join(dir, "*.surf"))
	if err != nil || len(files) == 0 {
		t.Fatalf("no artifact files in store: %v", err)
	}
	for _, f := range files {
		data, err := os.ReadFile(f)
		if err != nil {
			t.Fatal(err)
		}
		data[len(data)/2] ^= 1
		if err := os.WriteFile(f, data, 0o644); err != nil {
			t.Fatal(err)
		}
	}

	p := t3dPool(t, dir)
	got := surfBytes(t, LoadSurface(p, 0, intStrides, intWSS))
	if !bytes.Equal(got, want) {
		t.Error("re-simulated sweep after corruption differs from the storeless sweep")
	}
	stats := p.Store().Stats()
	if stats.Quarantined == 0 {
		t.Error("corrupt entry was not quarantined")
	}
	// The re-simulated surface was written back and now serves clean.
	warmPool := t3dPool(t, dir)
	if warm := surfBytes(t, LoadSurface(warmPool, 0, intStrides, intWSS)); !bytes.Equal(warm, want) {
		t.Error("write-back after corruption recovery differs")
	}
	if warmPool.Points() != 0 {
		t.Error("recovered entry did not serve warm")
	}
}

// TestCurveStoreBacked covers the copy/remote-copy curve path: a
// curve is a one-row surface at the clamped working set, stored and
// served through the same path as the grids.
func TestCurveStoreBacked(t *testing.T) {
	strides := []int{1, 8}
	run := func(dir string) ([]byte, *sweep.Pool) {
		p := t3dPool(t, dir)
		c := CopyCurve(p, 0, 64*units.MB, strides, true)
		if len(c.WorkingSets) != 1 || c.WorkingSets[0] != transferCap {
			t.Fatalf("curve working sets = %v, want the one clamped row %v", c.WorkingSets, transferCap)
		}
		return surfBytes(t, c), p
	}
	want, _ := run("")
	dir := t.TempDir()
	if cold, _ := run(dir); !bytes.Equal(cold, want) {
		t.Error("cold curve differs from the storeless curve")
	}
	warm, p := run(dir)
	if !bytes.Equal(warm, want) {
		t.Error("warm curve differs from the storeless curve")
	}
	if pts := p.Points(); pts != 0 {
		t.Errorf("warm curve simulated %d points, want 0", pts)
	}
	e := p.Store().Entries()
	if len(e) != 1 || e[0].Pattern != "copy-sl@0" || !e[0].Complete() {
		t.Errorf("store entries = %+v, want one complete copy-sl@0 curve", e)
	}

	// The remote copy curve takes the same path, failing kernel and all.
	transfer := func(dir string) []byte {
		p := t3dPool(t, dir)
		c, err := TransferCurve(p, 0, machine.PreferredPartner(p.Machine()), 8*units.MB, strides, machine.Deposit, false, false)
		if err != nil {
			t.Fatal(err)
		}
		return surfBytes(t, c)
	}
	if cold := transfer(dir); !bytes.Equal(cold, transfer("")) || !bytes.Equal(transfer(dir), cold) {
		t.Error("store-backed transfer curve differs from the storeless curve")
	}
}
