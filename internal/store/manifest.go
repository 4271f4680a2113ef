package store

import (
	"encoding/binary"
	"fmt"
)

// The manifest is the store's index: one entry per persisted
// artifact, carrying the full key, the cell provenance tally, and a checksum of the snapshot file's bytes. It
// is itself a versioned byte-stable snapshot — identical stores
// marshal to identical manifests — so a store directory can be
// diffed, golden-tested, and safely rewritten in place.
//
// Layout (all integers little-endian, fixed width):
//
//	magic    4 bytes  "SSTM"
//	version  uint16   manifestVersion
//	Entries  uint32 count, then per entry a uint32 length prefix and
//	         the Entry encoding (see Entry.MarshalBinary)
//
// A manifest that fails to decode — truncated, bit-flipped, wrong
// version — quarantines aside and the store opens empty; the
// artifacts it indexed are re-simulated or re-adopted by later
// writes. Never a crash, never a stale serve.
//
// Version history: v1 entries carried an artifact kind byte (surface
// or curve). v2 dropped it when every artifact became a surface; a v1
// manifest quarantines like any other undecodable one.

const (
	manifestMagic   = "SSTM"
	manifestVersion = 2
	// manifestName is the manifest's file name within a store
	// directory.
	manifestName = "manifest.bin"
	// maxManifestElems bounds decoded counts and string lengths so a
	// corrupt prefix cannot demand a giant allocation.
	maxManifestElems = 1 << 24
)

// Manifest indexes every artifact of one store directory.
//
//simlint:snapshot
type Manifest struct {
	Entries []Entry
}

// Entry describes one persisted artifact.
//
//simlint:snapshot
type Entry struct {
	// File is the artifact's file name within the store directory.
	File string
	// Machine, Pattern, CalHash, GridSig are the artifact's Key.
	Machine string
	Pattern string
	CalHash uint64
	GridSig uint64
	// Cells is the artifact's total cell count; Simulated counts the
	// cells whose provenance is the simulator (the rest are analytic
	// fills from a pruned sweep). Simulated == Cells marks a complete
	// surface.
	Cells     int64
	Simulated int64
	// Checksum is the FNV-1a digest of the artifact file's bytes,
	// verified on every disk read.
	Checksum uint64
}

// Key returns the entry's store key.
func (e *Entry) Key() Key {
	return Key{Machine: e.Machine, Pattern: e.Pattern, CalHash: e.CalHash, GridSig: e.GridSig}
}

// Complete reports whether every cell of the artifact is simulated.
func (e *Entry) Complete() bool { return e.Simulated == e.Cells }

// MarshalBinary encodes the manifest in the versioned layout.
func (m *Manifest) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 16+96*len(m.Entries))
	buf = append(buf, manifestMagic...)
	buf = binary.LittleEndian.AppendUint16(buf, manifestVersion)
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(m.Entries)))
	for i := range m.Entries {
		eb, err := m.Entries[i].MarshalBinary()
		if err != nil {
			return nil, err
		}
		buf = binary.LittleEndian.AppendUint32(buf, uint32(len(eb)))
		buf = append(buf, eb...)
	}
	return buf, nil
}

// UnmarshalBinary decodes a snapshot produced by MarshalBinary,
// replacing the receiver's contents. The input is validated fully
// before any field is assigned.
func (m *Manifest) UnmarshalBinary(data []byte) error {
	r := manReader{data: data}
	if string(r.take(4)) != manifestMagic {
		return fmt.Errorf("store manifest: bad magic")
	}
	v := r.u16()
	if r.err == nil && v != manifestVersion {
		return fmt.Errorf("store manifest: unsupported version %d (want %d)", v, manifestVersion)
	}
	entries := make([]Entry, r.count())
	for i := range entries {
		eb := r.take(int(r.u32prefix()))
		if r.err != nil {
			return r.err
		}
		if err := entries[i].UnmarshalBinary(eb); err != nil {
			return err
		}
	}
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("store manifest: %d trailing bytes", len(data)-r.off)
	}
	m.Entries = entries
	return nil
}

// Entry wire layout: version tag, then every field in declaration
// order, strings length-prefixed.
func (e *Entry) MarshalBinary() ([]byte, error) {
	buf := make([]byte, 0, 64+len(e.File)+len(e.Machine)+len(e.Pattern))
	buf = binary.LittleEndian.AppendUint16(buf, manifestVersion)
	buf = appendManString(buf, e.File)
	buf = appendManString(buf, e.Machine)
	buf = appendManString(buf, e.Pattern)
	buf = binary.LittleEndian.AppendUint64(buf, e.CalHash)
	buf = binary.LittleEndian.AppendUint64(buf, e.GridSig)
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Cells))
	buf = binary.LittleEndian.AppendUint64(buf, uint64(e.Simulated))
	buf = binary.LittleEndian.AppendUint64(buf, e.Checksum)
	return buf, nil
}

// UnmarshalBinary decodes one entry, validating fully before
// assigning.
func (e *Entry) UnmarshalBinary(data []byte) error {
	r := manReader{data: data}
	v := r.u16()
	if r.err == nil && v != manifestVersion {
		return fmt.Errorf("store manifest entry: unsupported version %d (want %d)", v, manifestVersion)
	}
	file := r.str()
	machine := r.str()
	pattern := r.str()
	calHash := r.u64()
	gridSig := r.u64()
	cells := int64(r.u64())
	simulated := int64(r.u64())
	checksum := r.u64()
	if r.err != nil {
		return r.err
	}
	if r.off != len(data) {
		return fmt.Errorf("store manifest entry: %d trailing bytes", len(data)-r.off)
	}
	if simulated < 0 || cells < 0 || simulated > cells {
		return fmt.Errorf("store manifest entry: %d simulated of %d cells", simulated, cells)
	}
	e.File = file
	e.Machine = machine
	e.Pattern = pattern
	e.CalHash = calHash
	e.GridSig = gridSig
	e.Cells = cells
	e.Simulated = simulated
	e.Checksum = checksum
	return nil
}

func appendManString(buf []byte, v string) []byte {
	buf = binary.LittleEndian.AppendUint32(buf, uint32(len(v)))
	return append(buf, v...)
}

// manReader cursors over manifest bytes with a sticky error, so the
// decoders read the whole layout and check once.
type manReader struct {
	data []byte
	off  int
	err  error
}

func (r *manReader) take(n int) []byte {
	if r.err != nil || n < 0 || len(r.data)-r.off < n {
		if r.err == nil {
			r.err = fmt.Errorf("store manifest: truncated at byte %d", r.off)
		}
		return nil
	}
	b := r.data[r.off : r.off+n]
	r.off += n
	return b
}

func (r *manReader) u16() uint16 {
	b := r.take(2)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint16(b)
}

func (r *manReader) u64() uint64 {
	b := r.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// u32prefix reads a bounded uint32 length or count prefix.
func (r *manReader) u32prefix() uint32 {
	b := r.take(4)
	if b == nil {
		return 0
	}
	n := binary.LittleEndian.Uint32(b)
	if n > maxManifestElems {
		if r.err == nil {
			r.err = fmt.Errorf("store manifest: length %d exceeds limit", n)
		}
		return 0
	}
	return n
}

// str reads a length-prefixed string.
func (r *manReader) str() string {
	return string(r.take(int(r.u32prefix())))
}

// count reads a bounded element count.
func (r *manReader) count() int {
	n := r.u32prefix()
	if r.err != nil {
		return 0
	}
	return int(n)
}
