package surface

import (
	"encoding/binary"
	"fmt"
	"math"

	"repro/internal/units"
)

// This file is the Surface wire format: the versioned binary snapshot
// the memserve surface store persists and the ECM-model validation
// replays. The layout is byte-stable — identical surfaces marshal to
// identical bytes on every platform — so snapshots can be golden
// files, cache keys, and diff targets.
//
// Layout (all integers little-endian, fixed width):
//
//	magic            4 bytes  "SURF"
//	version          uint16   snapshotVersion
//	calibration hash uint64   CalHash — the machine calibration the
//	                          grid was computed from
//	Machine          uint32 length + bytes
//	Title            uint32 length + bytes
//	Strides          uint32 count + int64 each
//	WorkingSets      uint32 count + int64 each
//	BW               float64 bits, row-major, len(WorkingSets) rows
//	                 of len(Strides) columns (dimensions implied)
//	Source           one byte per cell, row-major, same dimensions
//	                 as BW (0 simulated, 1 analytic)
//
// Every sweep artifact is a Surface: a fixed-working-set stride sweep
// (Figures 9-14, the headline points) is one working-set row, so this
// is the only artifact codec. Version history: v1 had no Source plane
// and wrote a zero calibration hash. It no longer decodes — the
// surface store is a cache, so a v1 file is a quarantined miss.

const (
	snapshotMagic   = "SURF"
	snapshotVersion = 2
)

// maxSnapshotElems bounds decoded axis lengths so a corrupt length
// prefix cannot demand a giant allocation.
const maxSnapshotElems = 1 << 24

// MarshalBinary encodes the surface in the versioned snapshot layout.
func (s *Surface) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+len(s.Machine)+len(s.Title)+
		8*(len(s.Strides)+len(s.WorkingSets))+
		9*len(s.WorkingSets)*len(s.Strides))
	if len(s.BW) != len(s.WorkingSets) {
		return nil, fmt.Errorf("surface snapshot: %d BW rows for %d working sets",
			len(s.BW), len(s.WorkingSets))
	}
	for i, row := range s.BW {
		if len(row) != len(s.Strides) {
			return nil, fmt.Errorf("surface snapshot: BW row %d has %d columns for %d strides",
				i, len(row), len(s.Strides))
		}
	}
	// An untagged surface (built by hand rather than New) encodes as
	// all-Simulated; a tagged one must match the grid.
	if len(s.Source) != 0 && len(s.Source) != len(s.WorkingSets) {
		return nil, fmt.Errorf("surface snapshot: %d Source rows for %d working sets",
			len(s.Source), len(s.WorkingSets))
	}
	for i, row := range s.Source {
		if len(row) != len(s.Strides) {
			return nil, fmt.Errorf("surface snapshot: Source row %d has %d columns for %d strides",
				i, len(row), len(s.Strides))
		}
	}
	buf = append(buf, snapshotMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, snapshotVersion)
	buf = binary.LittleEndian.AppendUint64(buf, s.CalHash)
	buf = appendSnapString(buf, s.Machine)
	buf = appendSnapString(buf, s.Title)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.Strides)))
	for _, st := range s.Strides {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(st)))
	}
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(s.WorkingSets)))
	for _, ws := range s.WorkingSets {
		buf = binary.LittleEndian.AppendUint64(buf, uint64(int64(ws)))
	}
	for _, row := range s.BW {
		for _, bw := range row {
			buf = binary.LittleEndian.AppendUint64(buf, math.Float64bits(float64(bw)))
		}
	}
	for wi := range s.BW {
		for si := range s.BW[wi] {
			var src Source
			if len(s.Source) != 0 {
				src = s.Source[wi][si]
			}
			buf = append(buf, byte(src))
		}
	}
	return buf, nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary,
// replacing the receiver's contents. The input is validated fully
// before any field is assigned, so a decode error leaves the
// receiver unchanged.
func (s *Surface) UnmarshalBinary(data []byte) error {
	r := snapReader{data: data}
	if string(r.take(4)) != snapshotMagic {
		return fmt.Errorf("surface snapshot: bad magic")
	}
	v := r.u16()
	if r.err == nil && v != snapshotVersion {
		return fmt.Errorf("surface snapshot: unsupported version %d (want %d)", v, snapshotVersion)
	}
	calHash := r.u64()
	machine := r.str()
	title := r.str()
	strides := make([]int, r.count())
	for i := range strides {
		strides[i] = int(int64(r.u64()))
	}
	wss := make([]units.Bytes, r.count())
	for i := range wss {
		wss[i] = units.Bytes(int64(r.u64()))
	}
	bw := make([][]units.BytesPerSec, len(wss))
	for i := range bw {
		bw[i] = make([]units.BytesPerSec, len(strides))
		for j := range bw[i] {
			bw[i][j] = units.BytesPerSec(math.Float64frombits(r.u64()))
		}
	}
	src := make([][]Source, len(wss))
	for i := range src {
		src[i] = make([]Source, len(strides))
		for j := range src[i] {
			tag := Source(r.u8())
			if r.err == nil && tag > Analytic {
				return fmt.Errorf("surface snapshot: unknown source tag %d at cell (%d,%d)", tag, i, j)
			}
			src[i][j] = tag
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("surface snapshot: %d trailing bytes", len(data)-r.off)
	}
	s.Machine = machine
	s.Title = title
	s.Strides = strides
	s.WorkingSets = wss
	s.BW = bw
	s.Source = src
	s.CalHash = calHash
	return nil
}

func appendSnapString(buf []byte, v string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// snapReader cursors over snapshot bytes with a sticky error, so the
// decoder reads the whole layout and checks once.
type snapReader struct {
	data []byte
	off  int
	err  error
}

func (r *snapReader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		if r.err == nil {
			r.err = fmt.Errorf("surface snapshot: truncated at byte %d", r.off)
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *snapReader) u8() uint8 {
	b := r.take(1)
	if b == nil {
		return 0
	}
	return b[0]
}

func (r *snapReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *snapReader) u32() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

func (r *snapReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// str reads a length-prefixed string.
func (r *snapReader) str() string {
	n := r.u32()
	if n > maxSnapshotElems {
		if r.err == nil {
			r.err = fmt.Errorf("surface snapshot: string length %d exceeds limit", n)
		}
		return ""
	}
	return string(r.take(int(n)))
}

// count reads an element count, bounded so corrupt prefixes cannot
// demand giant allocations.
func (r *snapReader) count() int {
	n := r.u32()
	if n > maxSnapshotElems {
		if r.err == nil {
			r.err = fmt.Errorf("surface snapshot: element count %d exceeds limit", n)
		}
		return 0
	}
	if r.err != nil {
		return 0
	}
	return int(n)
}
