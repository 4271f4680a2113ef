// Package cache implements the cache models of the three machines'
// memory hierarchies: direct-mapped and set-associative caches with
// write-through or write-back policies and configurable allocation,
// plus the Cray T3D's coalescing write-back queue (§3.2).
//
// Caches here are *functional* tag/state arrays: they answer hit/miss
// and report victim write-backs. Timing (fill occupancy, drain rates)
// is charged by the node model in internal/node, which owns the
// sim.Resource pipelines.
//
// The tag store is one flat line array, set s holding ways
// [s*assoc, (s+1)*assoc). Set and line counts are powers of two, so a
// probe indexes with a shift and a mask. Validity is a generation
// stamp: a line is valid only while its gen equals the cache's, so
// InvalidateAll (the cold reset before every sweep point) advances
// the generation and touches no line, except for one real clear when
// the 32-bit counter wraps. Invariant: a stale-generation line is
// never read — every probe compares gen before the tag, and victim
// selection takes the first stale way before it compares any lastUse.
// Two running counts, of the current generation's live lines and of
// its dirty lines, keep the invalidation counter exact without a
// scan and let Dirty answer a cache that holds no dirty line without
// probing.
package cache

import (
	"fmt"
	"math/bits"
	"strings"

	"repro/internal/access"
	"repro/internal/probe"
	"repro/internal/units"
)

// WritePolicy selects how stores interact with a cache level.
type WritePolicy int

const (
	// WriteThrough propagates every store to the next level
	// immediately (DEC Alpha 21064/21164 L1 D-caches).
	WriteThrough WritePolicy = iota
	// WriteBack keeps dirty lines and writes them back on eviction
	// (21164 L2, DEC 8400 L3).
	WriteBack
)

func (w WritePolicy) String() string {
	if w == WriteThrough {
		return "write-through"
	}
	return "write-back"
}

// AllocPolicy selects whether stores allocate lines on miss.
type AllocPolicy int

const (
	// ReadAllocate allocates only on load misses; store misses
	// bypass the cache (the 21064 L1 is read-allocate, §3.2).
	ReadAllocate AllocPolicy = iota
	// ReadWriteAllocate allocates on both load and store misses.
	ReadWriteAllocate
)

func (a AllocPolicy) String() string {
	if a == ReadAllocate {
		return "read-allocate"
	}
	return "read-write-allocate"
}

// Config describes a cache level's geometry and policies.
type Config struct {
	Name     string
	Size     units.Bytes
	LineSize units.Bytes
	// Assoc is the set associativity; 1 (or 0) is direct mapped.
	Assoc  int
	Write  WritePolicy
	Alloc  AllocPolicy
	Shared bool // unified I/D (21164 L2); informational only
	// Probe is the registration scope for the level's counters. A
	// zero scope makes the cache register into a private probe, so
	// standalone caches (tests) still count.
	Probe probe.Scope
}

func (c Config) String() string {
	return fmt.Sprintf("%s %v %d-way %vB lines %v %v",
		c.Name, c.Size, c.assoc(), int64(c.LineSize), c.Write, c.Alloc)
}

func (c Config) assoc() int {
	if c.Assoc < 1 {
		return 1
	}
	return c.Assoc
}

// Stats is the comparable view of a cache level's counters. The
// storage lives in the probe registry; Stats is assembled on demand.
type Stats struct {
	ReadHits, ReadMisses   int64
	WriteHits, WriteMisses int64
	WriteBacks             int64
	Invalidations          int64
}

// Accesses returns the total number of accesses counted.
func (s Stats) Accesses() int64 {
	return s.ReadHits + s.ReadMisses + s.WriteHits + s.WriteMisses
}

// HitRate returns the fraction of accesses that hit, or 0 if none.
func (s Stats) HitRate() float64 {
	a := s.Accesses()
	if a == 0 {
		return 0
	}
	return float64(s.ReadHits+s.WriteHits) / float64(a)
}

type line struct {
	tag int64
	// lastUse orders lines within a set for LRU replacement.
	lastUse int64
	// gen is the cache generation the line was filled in. The line
	// is valid only while gen equals the cache's current generation;
	// every other field of a stale line is garbage and never read.
	gen   uint32
	dirty bool
}

// Cache is one level of a memory hierarchy.
type Cache struct {
	cfg Config
	// lines is the flat tag store: set s occupies
	// lines[s*assoc : (s+1)*assoc].
	lines     []line
	assoc     int64
	lineShift uint  // log2(LineSize): line address to line number
	setMask   int64 // number of sets - 1
	lineMask  int64
	tick      int64
	// gen is the current generation (never 0, so zeroed lines are
	// invalid). InvalidateAll advances it instead of walking lines.
	gen uint32
	// live counts the lines valid in the current generation, and
	// dirty those of them that are dirty.
	live, dirty int64

	ps probe.Scope
	// counter handles into the probe registry
	readHits, readMisses   probe.Counter
	writeHits, writeMisses probe.Counter
	writeBacks             probe.Counter
	invalidations          probe.Counter
}

// New builds a cache from its configuration. It panics on geometries
// that are not a power-of-two number of sets, which none of the
// modelled machines use.
func New(cfg Config) *Cache {
	assoc := int64(cfg.assoc())
	numSets := int64(cfg.Size/cfg.LineSize) / assoc
	if numSets == 0 {
		numSets = 1
	}
	if cfg.LineSize&(cfg.LineSize-1) != 0 {
		panic(fmt.Sprintf("cache %s: line size %d not a power of two", cfg.Name, cfg.LineSize))
	}
	if numSets&(numSets-1) != 0 {
		panic(fmt.Sprintf("cache %s: %d sets not a power of two", cfg.Name, numSets))
	}
	c := &Cache{
		cfg:       cfg,
		lines:     make([]line, numSets*assoc),
		assoc:     assoc,
		lineShift: uint(bits.TrailingZeros64(uint64(cfg.LineSize))),
		setMask:   numSets - 1,
		lineMask:  int64(cfg.LineSize) - 1,
		gen:       1,
	}
	c.ps = cfg.Probe
	if !c.ps.Valid() {
		name := strings.ToLower(cfg.Name)
		if name == "" {
			name = "cache"
		}
		c.ps = probe.New().Scope(name)
	}
	c.readHits = c.ps.Counter("read_hits")
	c.readMisses = c.ps.Counter("read_misses")
	c.writeHits = c.ps.Counter("write_hits")
	c.writeMisses = c.ps.Counter("write_misses")
	c.writeBacks = c.ps.Counter("writebacks")
	c.invalidations = c.ps.Counter("invalidations")
	return c
}

// Config returns the cache's configuration.
func (c *Cache) Config() Config { return c.cfg }

// Stats returns a snapshot of the access counters.
func (c *Cache) Stats() Stats {
	return Stats{
		ReadHits:      c.readHits.Get(),
		ReadMisses:    c.readMisses.Get(),
		WriteHits:     c.writeHits.Get(),
		WriteMisses:   c.writeMisses.Get(),
		WriteBacks:    c.writeBacks.Get(),
		Invalidations: c.invalidations.Get(),
	}
}

// Scope returns the cache's probe registration scope.
func (c *Cache) Scope() probe.Scope { return c.ps }

// LineAddr returns the address of the line containing a.
func (c *Cache) LineAddr(a access.Addr) access.Addr {
	return a &^ access.Addr(c.lineMask)
}

// set returns the ways of the set that line address lineA maps to.
// New guarantees a power-of-two line size and set count, so the line
// number is a shift and the set index a mask.
func (c *Cache) set(lineA access.Addr) []line {
	base := (int64(lineA) >> c.lineShift & c.setMask) * c.assoc
	return c.lines[base : base+c.assoc : base+c.assoc]
}

// find returns the index within set of the valid line tagged tag, or
// -1 when the line is not resident.
func (c *Cache) find(set []line, tag int64) int {
	for i := range set {
		if set[i].gen == c.gen && set[i].tag == tag {
			return i
		}
	}
	return -1
}

// Result reports the outcome of an Access.
type Result struct {
	Hit bool
	// Filled is true when the access allocated a line (a fill from
	// the next level happened).
	Filled bool
	// WriteBack is the line address of a dirty victim that must be
	// written to the next level, valid when HasWriteBack.
	WriteBack    access.Addr
	HasWriteBack bool
	// WriteThrough is true when a store must also be sent to the
	// next level (write-through policy or non-allocating miss).
	WriteThrough bool
}

// Access performs a load (isWrite=false) or store (isWrite=true) at
// byte address a, updating tags and returning what the next level
// must do.
func (c *Cache) Access(a access.Addr, isWrite bool) Result {
	c.tick++
	lineA := c.LineAddr(a)
	set := c.set(lineA)
	tag := int64(lineA)

	// Probe.
	if i := c.find(set, tag); i >= 0 {
		set[i].lastUse = c.tick
		if isWrite {
			c.writeHits.Inc()
			if c.cfg.Write == WriteBack {
				c.markDirty(&set[i])
				return Result{Hit: true}
			}
			return Result{Hit: true, WriteThrough: true}
		}
		c.readHits.Inc()
		return Result{Hit: true}
	}

	// Miss.
	if isWrite {
		c.writeMisses.Inc()
		if c.cfg.Alloc == ReadAllocate {
			// Non-allocating store miss goes straight through.
			return Result{WriteThrough: true}
		}
	} else {
		c.readMisses.Inc()
	}

	// Allocate: choose invalid or LRU victim. Only valid lines'
	// lastUse values are ever compared.
	victim := 0
	for i := range set {
		if set[i].gen != c.gen {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	res := Result{Filled: true}
	if set[victim].gen != c.gen {
		c.live++
	} else if set[victim].dirty {
		res.WriteBack = access.Addr(set[victim].tag)
		res.HasWriteBack = true
		c.writeBacks.Inc()
		c.dirty--
	}
	set[victim] = line{tag: tag, lastUse: c.tick, gen: c.gen}
	if isWrite {
		if c.cfg.Write == WriteBack {
			c.markDirty(&set[victim])
		} else {
			res.WriteThrough = true
		}
	}
	return res
}

// markDirty sets a valid line's dirty bit, keeping the dirty count.
func (c *Cache) markDirty(l *line) {
	if !l.dirty {
		l.dirty = true
		c.dirty++
	}
}

// lookup returns the valid line holding a, or nil when it is not
// resident.
func (c *Cache) lookup(a access.Addr) *line {
	lineA := c.LineAddr(a)
	set := c.set(lineA)
	if i := c.find(set, int64(lineA)); i >= 0 {
		return &set[i]
	}
	return nil
}

// Contains reports whether the line holding a is present (no state
// update; used by coherence probes).
func (c *Cache) Contains(a access.Addr) bool { return c.lookup(a) != nil }

// Dirty reports whether the line holding a is present and dirty. A
// cache holding no dirty line answers without probing (and the check
// inlines into the caller), which makes the 8400's snoop for a dirty
// supplier cheap against clean peers.
func (c *Cache) Dirty(a access.Addr) bool {
	if c.dirty == 0 {
		return false
	}
	l := c.lookup(a)
	return l != nil && l.dirty
}

// Invalidate drops the line containing a, returning whether it was
// present and dirty (the caller then owes a write-back). The T3D
// invalidates its L1 "line by line as data is stored into local
// memory" by the remote-deposit circuitry (§3.2); the 8400's snooping
// protocol invalidates on remote writes.
func (c *Cache) Invalidate(a access.Addr) (present, dirty bool) {
	l := c.lookup(a)
	if l == nil {
		return false, false
	}
	dirty = l.dirty
	if dirty {
		c.dirty--
	}
	*l = line{}
	c.live--
	c.invalidations.Inc()
	return true, dirty
}

// InvalidateAll flushes every line ("invalidated entirely when the
// program reaches a synchronization point", §3.2). Dirty lines are
// discarded; the modelled T3D L1 is write-through so no data is lost.
//
// The flush costs O(1): advancing the generation makes every line
// stale at once, and the live count keeps the invalidation counter
// exact. Only when the generation counter wraps to 0 are the lines
// really cleared, so that no line from 2^32 flushes ago comes back.
func (c *Cache) InvalidateAll() {
	c.invalidations.Add(c.live)
	c.live, c.dirty = 0, 0
	c.gen++
	if c.gen == 0 {
		clear(c.lines)
		c.gen = 1
	}
	// The LRU clock restarts from zero with the lines; leaving it
	// warm would let tick values leak from one sweep point into the
	// next.
	c.tick = 0
}

// ResetStats zeroes the access counters without touching lines
// (every counter registered under the cache's scope).
func (c *Cache) ResetStats() { c.ps.Reset() }

// SetDirty marks the line containing a dirty if present, reporting
// whether it was found (a victim from the level above landed in this
// level and must eventually be written back further down).
func (c *Cache) SetDirty(a access.Addr) bool {
	l := c.lookup(a)
	if l != nil {
		c.markDirty(l)
	}
	return l != nil
}

// Clean marks the line containing a clean if present (after a
// coherence write-back supplied the data to another processor).
func (c *Cache) Clean(a access.Addr) {
	if l := c.lookup(a); l != nil && l.dirty {
		l.dirty = false
		c.dirty--
	}
}
