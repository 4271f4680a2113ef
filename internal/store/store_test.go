package store

import (
	"bytes"
	"encoding/binary"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/machine"
	"repro/internal/surface"
	"repro/internal/units"
)

var (
	testStrides = []int{1, 4, 16}
	testWSS     = []units.Bytes{4 * units.KB, 64 * units.KB, 1 * units.MB}
)

// testSurface builds a synthetic all-simulated surface under cal.
func testSurface(cal machine.Calibration) *surface.Surface {
	s := surface.New(cal.Machine, "test load bandwidth", testStrides, testWSS)
	s.CalHash = cal.Hash()
	for wi := range testWSS {
		for si := range testStrides {
			s.Set(wi, si, units.BytesPerSec(1e8*float64(wi+1)/float64(si+1)))
		}
	}
	return s
}

// testCurve builds a synthetic fixed-working-set copy curve: a
// one-row all-simulated surface under cal.
func testCurve(cal machine.Calibration) *surface.Surface {
	c := surface.New(cal.Machine, "test copy", []int{1, 2, 4}, []units.Bytes{8 * units.MB})
	c.CalHash = cal.Hash()
	for si, bw := range []units.BytesPerSec{3e8, 2e8, 1e8} {
		c.Set(0, si, bw)
	}
	return c
}

func testKey(cal machine.Calibration) Key {
	return SurfaceKey(cal, PatternLoad, "", 0, 0, testStrides, testWSS)
}

func openTest(t *testing.T, dir string) *Store {
	t.Helper()
	st, err := Open(dir, Options{Logf: t.Logf})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return st
}

func TestSurfaceRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	s := testSurface(cal)
	k := testKey(cal)
	want, err := s.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}

	st := openTest(t, dir)
	if err := st.PutSurface(k, s); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	// Same handle: an in-memory hit.
	got, ok := st.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed after Put")
	}
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(gb, want) {
		t.Error("in-memory round trip is not byte-identical")
	}
	if stats := st.Stats(); stats.MemHits != 1 {
		t.Errorf("MemHits = %d, want 1", stats.MemHits)
	}

	// Fresh handle on the same directory: a disk hit.
	st2 := openTest(t, dir)
	got2, ok := st2.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed after reopen")
	}
	gb2, _ := got2.MarshalBinary()
	if !bytes.Equal(gb2, want) {
		t.Error("disk round trip is not byte-identical")
	}
	if stats := st2.Stats(); stats.DiskHits != 1 {
		t.Errorf("DiskHits = %d, want 1", stats.DiskHits)
	}
}

func TestGetReturnsCopies(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	k := testKey(cal)
	if err := st.PutSurface(k, testSurface(cal)); err != nil {
		t.Fatal(err)
	}
	a, _ := st.GetSurface(k)
	a.Set(0, 0, 12345) // mutate the caller's copy
	b, _ := st.GetSurface(k)
	if b.BW[0][0] == 12345 {
		t.Error("mutating a Get result leaked into the store's cached copy")
	}
}

func TestCurveRoundTrip(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3E(1).Calibration()
	c := testCurve(cal)
	k := SurfaceKey(cal, PatternCopy, "sl", 0, 0, c.Strides, c.WorkingSets)
	if k.Pattern != "copy-sl@0" {
		t.Errorf("curve pattern = %q, want copy-sl@0", k.Pattern)
	}
	want, _ := c.MarshalBinary()

	st := openTest(t, dir)
	if err := st.PutSurface(k, c); err != nil {
		t.Fatalf("PutSurface: %v", err)
	}
	st2 := openTest(t, dir)
	got, ok := st2.GetSurface(k)
	if !ok {
		t.Fatal("GetSurface missed a curve after reopen")
	}
	gb, _ := got.MarshalBinary()
	if !bytes.Equal(gb, want) {
		t.Error("curve round trip is not byte-identical")
	}
	e := st2.Entries()[0]
	if e.Cells != 3 || !e.Complete() || !strings.HasSuffix(e.File, ".surf") {
		t.Errorf("curve manifest entry = %+v, want 3 complete cells in a .surf file", e)
	}
}

// TestSurfaceKeyPatterns pins the pattern strings of every artifact
// family: Lookup filters grids by prefix ("load@", "transfer-fetch@"),
// so a fixed-working-set curve's pattern must never start with one.
func TestSurfaceKeyPatterns(t *testing.T) {
	cal := machine.NewT3E(1).Calibration()
	ws := []units.Bytes{8 * units.MB}
	for _, tc := range []struct {
		p       Pattern
		variant string
		want    string
	}{
		{PatternLoad, "", "load@0"},
		{PatternLoad, "pt", "load-pt@0"},
		{PatternTransfer, "fetch", "transfer-fetch@0-1"},
		{PatternCopy, "sl", "copy-sl@0"},
		{PatternRemoteCopy, "fetch-sl-p", "remotecopy-fetch-sl-p@0-1"},
	} {
		if got := SurfaceKey(cal, tc.p, tc.variant, 0, 1, []int{1}, ws).Pattern; got != tc.want {
			t.Errorf("SurfaceKey(%s, %q) pattern = %q, want %q", tc.p, tc.variant, got, tc.want)
		}
	}
}

func TestPutRejectsCalHashMismatch(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	s := testSurface(cal)
	s.CalHash++ // corrupt the artifact's provenance
	if err := st.PutSurface(testKey(cal), s); err == nil {
		t.Error("PutSurface accepted a surface whose CalHash does not match the key")
	}
}

// TestCalHashMissTotal: a calibration change — any constant, here one
// CPU slot — invalidates every entry keyed under the old calibration.
func TestCalHashMissTotal(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, t.TempDir())
	if err := st.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatal(err)
	}

	recal := cal
	recal.CPU.LoadSlot += 1
	if recal.Hash() == cal.Hash() {
		t.Fatal("calibration change did not change the hash")
	}
	if _, ok := st.GetSurface(testKey(recal)); ok {
		t.Error("GetSurface served an artifact from a different calibration")
	}
	// The off-grid path must not serve stale cells either: with no
	// matching surface it falls back to the analytic model.
	r, err := st.Lookup(recal, PatternLoad, machine.Fetch, testWSS[0], testStrides[0])
	if err != nil {
		t.Fatal(err)
	}
	if r.Confidence != Analytic {
		t.Errorf("Lookup confidence after recalibration = %v, want Analytic", r.Confidence)
	}
}

func TestLRUEvictionOrder(t *testing.T) {
	l := newLRU(2)
	ka := Key{Machine: "m", Pattern: "a"}
	kb := Key{Machine: "m", Pattern: "b"}
	kc := Key{Machine: "m", Pattern: "c"}
	v := &surface.Surface{}
	l.put(ka, v)
	l.put(kb, v)
	// Touch a so b becomes the eviction victim.
	if _, ok := l.get(ka); !ok {
		t.Fatal("get(a) missed")
	}
	if got := l.keys(); got[0] != ka || got[1] != kb {
		t.Fatalf("recency order = %v, want [a b]", got)
	}
	if evicted := l.put(kc, v); evicted != 1 {
		t.Fatalf("put(c) evicted %d, want 1", evicted)
	}
	if _, ok := l.get(kb); ok {
		t.Error("b survived eviction; LRU order is wrong")
	}
	if _, ok := l.get(ka); !ok {
		t.Error("a was evicted despite being most recently used")
	}
	if l.len() != 2 {
		t.Errorf("len = %d, want 2", l.len())
	}
}

func TestStoreEvictionCounted(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	st, err := Open(t.TempDir(), Options{CacheEntries: 1})
	if err != nil {
		t.Fatal(err)
	}
	c := testCurve(cal)
	ka := SurfaceKey(cal, PatternCopy, "a", 0, 0, c.Strides, c.WorkingSets)
	kb := SurfaceKey(cal, PatternCopy, "b", 0, 0, c.Strides, c.WorkingSets)
	if err := st.PutSurface(ka, c); err != nil {
		t.Fatal(err)
	}
	if err := st.PutSurface(kb, c); err != nil {
		t.Fatal(err)
	}
	if stats := st.Stats(); stats.Evictions != 1 {
		t.Errorf("Evictions = %d, want 1", stats.Evictions)
	}
	// Both entries still serve from disk — eviction only drops the
	// decoded copy.
	if _, ok := st.GetSurface(ka); !ok {
		t.Error("evicted entry no longer serves from disk")
	}
}

// entryFile returns the artifact file the store holds for k.
func entryFile(t *testing.T, st *Store, k Key) string {
	t.Helper()
	st.mu.Lock()
	defer st.mu.Unlock()
	idx, ok := st.byKey[k]
	if !ok {
		t.Fatal("no manifest entry for key")
	}
	return st.man.Entries[idx].File
}

// TestCorruptionQuarantined: a truncated, bit-flipped, or
// wrong-version artifact is never served and never crashes — it is
// renamed aside and the lookup misses so the caller re-simulates.
func TestCorruptionQuarantined(t *testing.T) {
	cal := machine.NewT3D(1).Calibration()
	corruptions := []struct {
		name    string
		corrupt func(data []byte) []byte
	}{
		{"truncated", func(d []byte) []byte { return d[:len(d)/2] }},
		{"bitflip", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[len(out)/2] ^= 0x40 // flip a bit mid-payload (bandwidth data)
			return out
		}},
		{"wrong-version", func(d []byte) []byte {
			out := append([]byte(nil), d...)
			out[4] = 0xEE // version field follows the 4-byte magic
			out[5] = 0xEE
			return out
		}},
	}
	for _, tc := range corruptions {
		t.Run(tc.name, func(t *testing.T) {
			dir := t.TempDir()
			st := openTest(t, dir)
			k := testKey(cal)
			if err := st.PutSurface(k, testSurface(cal)); err != nil {
				t.Fatal(err)
			}
			file := entryFile(t, st, k)
			path := filepath.Join(dir, file)
			data, err := os.ReadFile(path)
			if err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(path, tc.corrupt(data), 0o644); err != nil {
				t.Fatal(err)
			}

			// Reopen so the LRU cannot mask the corrupt file.
			st2 := openTest(t, dir)
			if _, ok := st2.GetSurface(k); ok {
				t.Fatal("corrupt entry was served")
			}
			stats := st2.Stats()
			if stats.Quarantined != 1 {
				t.Errorf("Quarantined = %d, want 1", stats.Quarantined)
			}
			if stats.Misses != 1 {
				t.Errorf("Misses = %d, want 1", stats.Misses)
			}
			if _, err := os.Stat(path + ".quarantined"); err != nil {
				t.Errorf("corrupt file was not renamed aside: %v", err)
			}
			// The slot is reusable: a fresh Put serves again.
			if err := st2.PutSurface(k, testSurface(cal)); err != nil {
				t.Fatalf("re-Put after quarantine: %v", err)
			}
			if _, ok := st2.GetSurface(k); !ok {
				t.Error("re-Put entry does not serve")
			}
		})
	}
}

// TestManifestCorruptionOpensEmpty: a damaged manifest quarantines
// aside and the store opens empty rather than failing or serving
// garbage.
func TestManifestCorruptionOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, dir)
	if err := st.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestName)
	data, err := os.ReadFile(manPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(manPath, data[:len(data)-3], 0o644); err != nil {
		t.Fatal(err)
	}

	var logged strings.Builder
	st2, err := Open(dir, Options{Logf: func(f string, a ...any) {
		logged.WriteString(f)
	}})
	if err != nil {
		t.Fatalf("Open after manifest corruption: %v", err)
	}
	if st2.Len() != 0 {
		t.Errorf("store opened with %d entries from a corrupt manifest", st2.Len())
	}
	if _, ok := st2.GetSurface(testKey(cal)); ok {
		t.Error("entry served despite the index being lost")
	}
	if !strings.Contains(logged.String(), "quarantin") {
		t.Errorf("quarantine was not logged: %q", logged.String())
	}
	if _, err := os.Stat(manPath + ".quarantined"); err != nil {
		t.Errorf("corrupt manifest was not renamed aside: %v", err)
	}
}

// v1Manifest encodes entries in the retired v1 manifest layout, whose
// entries carried an artifact kind byte (0 surface, 1 curve) between
// the grid signature and the cell counts.
func v1Manifest(entries []Entry) []byte {
	str := func(b []byte, v string) []byte {
		return append(binary.LittleEndian.AppendUint32(b, uint32(len(v))), v...)
	}
	buf := binary.LittleEndian.AppendUint16([]byte(manifestMagic), 1)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(entries)))
	for _, e := range entries {
		eb := binary.LittleEndian.AppendUint16(nil, 1)
		eb = str(str(str(eb, e.File), e.Machine), e.Pattern)
		eb = binary.LittleEndian.AppendUint64(eb, e.CalHash)
		eb = binary.LittleEndian.AppendUint64(eb, e.GridSig)
		eb = append(eb, 0)
		eb = binary.LittleEndian.AppendUint64(eb, uint64(e.Cells))
		eb = binary.LittleEndian.AppendUint64(eb, uint64(e.Simulated))
		eb = binary.LittleEndian.AppendUint64(eb, e.Checksum)
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(eb)))
		buf = append(buf, eb...)
	}
	return buf
}

// TestOldManifestVersionOpensEmpty: a store written before the
// manifest dropped its kind byte opens empty — the store is a cache,
// so its old entries are misses to re-simulate, never a panic and
// never a misread index.
func TestOldManifestVersionOpensEmpty(t *testing.T) {
	dir := t.TempDir()
	cal := machine.NewT3D(1).Calibration()
	st := openTest(t, dir)
	if err := st.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatal(err)
	}
	manPath := filepath.Join(dir, manifestName)
	if err := os.WriteFile(manPath, v1Manifest(st.Entries()), 0o644); err != nil {
		t.Fatal(err)
	}

	st2 := openTest(t, dir)
	if st2.Len() != 0 {
		t.Errorf("store opened with %d entries from a v1 manifest", st2.Len())
	}
	if _, ok := st2.GetSurface(testKey(cal)); ok {
		t.Error("an entry of the v1 manifest was served")
	}
	if stats := st2.Stats(); stats.Quarantined != 1 || stats.Misses != 1 {
		t.Errorf("v1 manifest accounting: %+v, want one quarantine and one miss", stats)
	}
	if _, err := os.Stat(manPath + ".quarantined"); err != nil {
		t.Errorf("v1 manifest was not renamed aside: %v", err)
	}
	// The store stays usable: a fresh write indexes and serves again.
	if err := st2.PutSurface(testKey(cal), testSurface(cal)); err != nil {
		t.Fatalf("Put after opening over a v1 manifest: %v", err)
	}
	if _, ok := openTest(t, dir).GetSurface(testKey(cal)); !ok {
		t.Error("re-written entry does not serve after reopen")
	}
}
