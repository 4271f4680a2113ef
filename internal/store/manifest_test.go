package store

import (
	"bytes"
	"testing"
)

func sampleManifest() *Manifest {
	return &Manifest{Entries: []Entry{
		{File: "a.surf", Machine: "Cray T3D", Pattern: "load@0",
			CalHash: 0x1111, GridSig: 0x2222,
			Cells: 231, Simulated: 108, Checksum: 0x3333},
		{File: "b.surf", Machine: "DEC 8400", Pattern: "copy-sl@0",
			CalHash: 0x4444, GridSig: 0x5555,
			Cells: 31, Simulated: 31, Checksum: 0x6666},
	}}
}

func TestManifestRoundTrip(t *testing.T) {
	m := sampleManifest()
	data, err := m.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var got Manifest
	if err := got.UnmarshalBinary(data); err != nil {
		t.Fatal(err)
	}
	if len(got.Entries) != 2 {
		t.Fatalf("decoded %d entries, want 2", len(got.Entries))
	}
	for i := range got.Entries {
		if got.Entries[i] != m.Entries[i] {
			t.Errorf("entry %d: got %+v, want %+v", i, got.Entries[i], m.Entries[i])
		}
	}
	// Byte stability: re-marshaling the decoded manifest reproduces
	// the input exactly.
	again, err := got.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(again, data) {
		t.Error("manifest codec is not byte-stable")
	}
}

func TestManifestRejectsCorruption(t *testing.T) {
	data, err := sampleManifest().MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	cases := []struct {
		name string
		data []byte
	}{
		{"empty", nil},
		{"bad-magic", append([]byte("XXXX"), data[4:]...)},
		{"truncated", data[:len(data)-5]},
		{"trailing", append(append([]byte(nil), data...), 0)},
		{"wrong-version", func() []byte {
			d := append([]byte(nil), data...)
			d[4], d[5] = 0xEE, 0xEE
			return d
		}()},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			var m Manifest
			if err := m.UnmarshalBinary(tc.data); err == nil {
				t.Error("decode accepted corrupt input")
			}
			if m.Entries != nil {
				t.Error("failed decode mutated the receiver")
			}
		})
	}
}

func TestEntryRejectsInvalid(t *testing.T) {
	bad := Entry{File: "x", Cells: 10, Simulated: 11}
	data, err := bad.MarshalBinary()
	if err != nil {
		t.Fatal(err)
	}
	var e Entry
	if err := e.UnmarshalBinary(data); err == nil {
		t.Error("decode accepted simulated > cells")
	}
}

func TestEntryCompleteness(t *testing.T) {
	e := Entry{Cells: 5, Simulated: 5}
	if !e.Complete() {
		t.Error("fully simulated entry reported incomplete")
	}
	e.Simulated = 4
	if e.Complete() {
		t.Error("partial entry reported complete")
	}
}
