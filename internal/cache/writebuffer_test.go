package cache

import (
	"reflect"
	"testing"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/sim"
	"repro/internal/units"
)

// counted attaches live drain counters to a write buffer, as the node
// model does through its probe scope.
func counted(w *WriteBuffer) *WriteBuffer {
	s := probe.New().Scope("wb")
	w.Drained = s.Counter("drained")
	w.DrainedBytes = s.ByteCounter("drained_bytes")
	return w
}

func target(res *sim.Resource, perByte units.Time) DrainTarget {
	return func(_ access.Addr, n units.Bytes, now units.Time) units.Time {
		occ := units.Time(n) * perByte
		return res.Acquire(now, occ) + occ
	}
}

func TestWriteBufferCoalescesContiguous(t *testing.T) {
	// Four contiguous 8-byte stores coalesce into one 32-byte entry
	// (T3D behaviour, §3.2).
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 6, EntryBytes: 32})
	tg := target(&res, 1)
	for i := 0; i < 4; i++ {
		if stall := w.Push(access.Addr(i*8), 0, tg); stall != 0 {
			t.Fatalf("store %d stalled %v", i, stall)
		}
	}
	if w.Drained.Get() != 1 || w.DrainedBytes.Get() != 32 {
		t.Fatalf("drained %d entries / %d bytes, want 1/32", w.Drained.Get(), w.DrainedBytes.Get())
	}
}

func TestWriteBufferStridedEntriesPerWord(t *testing.T) {
	// Strided stores (64B apart) cannot coalesce: one entry per word.
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 6, EntryBytes: 32})
	tg := target(&res, 1)
	for i := 0; i < 8; i++ {
		w.Push(access.Addr(i*64), 0, tg)
	}
	w.Flush(0, tg)
	if w.Drained.Get() != 8 {
		t.Fatalf("drained %d entries, want 8 (no coalescing)", w.Drained.Get())
	}
	if w.DrainedBytes.Get() != 64 {
		t.Fatalf("drained %d bytes, want 64 (8 words)", w.DrainedBytes.Get())
	}
}

func TestWriteBufferBackpressure(t *testing.T) {
	// With 2 slots and a slow drain, a burst of strided stores must
	// eventually stall the processor.
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 2, EntryBytes: 32})
	tg := target(&res, 100) // 800ns per 8-byte entry
	var totalStall units.Time
	for i := 0; i < 16; i++ {
		totalStall += w.Push(access.Addr(i*64), 0, tg)
	}
	if totalStall == 0 {
		t.Fatalf("saturated write buffer should stall the producer")
	}
}

func TestWriteBufferContiguousBeatsStrided(t *testing.T) {
	// Coalescing means a contiguous store stream completes its drains
	// in fewer entries (and thus less drain occupancy) than a strided
	// stream of the same word count — the mechanism behind the T3D's
	// strided-store advantage evaporating relative to its contiguous
	// stores.
	run := func(strideBytes int) units.Time {
		var res sim.Resource
		w := counted(&WriteBuffer{Entries: 4, EntryBytes: 32})
		// Per-entry fixed cost (a DRAM access / network packet) plus
		// a per-byte transfer cost: this is what coalescing saves.
		tg := func(_ access.Addr, n units.Bytes, now units.Time) units.Time {
			occ := 50 + units.Time(n)*2
			return res.Acquire(now, occ) + occ
		}
		now := units.Time(0)
		for i := 0; i < 64; i++ {
			now += w.Push(access.Addr(i*strideBytes), now, tg)
		}
		return w.Flush(now, tg)
	}
	if cont, strided := run(8), run(64); cont >= strided {
		t.Fatalf("contiguous drain (%v) should finish before strided (%v)", cont, strided)
	}
}

func TestWriteBufferFlushWaitsForDrains(t *testing.T) {
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 4, EntryBytes: 32})
	tg := target(&res, 10) // 80ns per word entry
	w.Push(0, 0, tg)
	done := w.Flush(0, tg)
	if done < 80 {
		t.Fatalf("flush completed at %v, want >= 80ns drain time", done)
	}
	// After flush, no in-flight state remains.
	if got := w.Flush(done, tg); got != done {
		t.Fatalf("idempotent flush moved time: %v -> %v", done, got)
	}
}

func TestWriteBufferReset(t *testing.T) {
	var res sim.Resource
	w := counted(&WriteBuffer{Entries: 2, EntryBytes: 32})
	tg := target(&res, 10)
	w.Push(0, 0, tg)
	w.Push(64, 0, tg) // one drain in flight, one entry open
	w.Reset()
	if w.Drained.Get() != 0 || w.DrainedBytes.Get() != 0 {
		t.Fatalf("reset should clear counters")
	}
	// Two cold starts must be bit-identical, so the open window is
	// zeroed even though openValid alone guards it.
	if w.openValid || w.openBase != 0 || w.openEnd != 0 || len(w.inflight) != 0 {
		t.Fatalf("reset left buffered state: %+v", *w)
	}
	if done := w.Flush(5, tg); done != 5 {
		t.Fatalf("reset buffer should flush instantly: %v", done)
	}
}

func TestWriteBufferFullStallsUntilEarliestDrain(t *testing.T) {
	// One slot and 80 ns per one-word entry: the second entry to
	// close finds the slot busy until the first drain ends at 80, so
	// a store issued at 10 stalls 70 and the second drain starts at 80.
	var res sim.Resource
	var starts []units.Time
	drain := target(&res, 10)
	tg := func(a access.Addr, n units.Bytes, now units.Time) units.Time {
		starts = append(starts, now)
		return drain(a, n, now)
	}
	w := &WriteBuffer{Entries: 1, EntryBytes: 32}
	w.Push(0, 0, tg)  // opens entry A
	w.Push(64, 0, tg) // closes A (drains 0..80), opens B
	if stall := w.Push(128, 10, tg); stall != 70 {
		t.Fatalf("store into a full buffer stalled %v, want 70", stall)
	}
	if want := []units.Time{0, 80}; !reflect.DeepEqual(starts, want) {
		t.Fatalf("drains started at %v, want %v", starts, want)
	}
}
