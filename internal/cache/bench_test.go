package cache

import (
	"testing"

	"repro/internal/access"
)

// benchGeometries are the three distinct cache shapes of the modelled
// machines: the 8 KB direct-mapped L1, the 21164's 96 KB 3-way L2 and
// the DEC 8400's 4 MB direct-mapped L3.
func benchGeometries() []Config {
	g := modelledGeometries()
	return []Config{g[0], g[2], g[5]}
}

// BenchmarkCacheAccess times one load through the tag store: a
// unit-stride word walk over twice the cache's capacity, so every
// line misses once per pass and its other words hit.
func BenchmarkCacheAccess(b *testing.B) {
	for _, cfg := range benchGeometries() {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			span := access.Addr(2 * cfg.Size)
			var a access.Addr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				c.Access(a, false)
				if a += 8; a == span {
					a = 0
				}
			}
		})
	}
}

// BenchmarkCacheDirty times the coherence snoop's question against a
// clean peer: a cache full of lines loaded by reads, asked whether it
// holds each of them dirty (the 8400's Fill → HoldsDirty path during
// a local-load sweep).
func BenchmarkCacheDirty(b *testing.B) {
	for _, cfg := range benchGeometries() {
		b.Run(cfg.Name, func(b *testing.B) {
			c := New(cfg)
			span := access.Addr(cfg.Size)
			for a := access.Addr(0); a < span; a += access.Addr(cfg.LineSize) {
				c.Access(a, false)
			}
			var a access.Addr
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if c.Dirty(a) {
					b.Fatal("clean cache reported a dirty line")
				}
				if a += access.Addr(cfg.LineSize); a == span {
					a = 0
				}
			}
		})
	}
}
