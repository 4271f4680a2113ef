package cache

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/access"
	"repro/internal/units"
)

// refCache is the tag store as it stood before the flat,
// generation-stamped rewrite: one slice per set, a valid bit per
// line, division and modulo indexing, and an InvalidateAll that walks
// every line. It is kept here as the reference model the rewrite must
// match answer for answer.
type refCache struct {
	cfg     Config
	sets    [][]refLine
	numSets int64
	tick    int64
	stats   Stats
}

type refLine struct {
	tag     int64
	valid   bool
	dirty   bool
	lastUse int64
}

func newRef(cfg Config) *refCache {
	assoc := cfg.assoc()
	numSets := int64(cfg.Size/cfg.LineSize) / int64(assoc)
	if numSets == 0 {
		numSets = 1
	}
	r := &refCache{cfg: cfg, numSets: numSets, sets: make([][]refLine, numSets)}
	for i := range r.sets {
		r.sets[i] = make([]refLine, assoc)
	}
	return r
}

func (r *refCache) lineAddr(a access.Addr) access.Addr {
	return a &^ access.Addr(int64(r.cfg.LineSize)-1)
}

func (r *refCache) set(a access.Addr) []refLine {
	return r.sets[int64(r.lineAddr(a))/int64(r.cfg.LineSize)%r.numSets]
}

func (r *refCache) access(a access.Addr, isWrite bool) Result {
	r.tick++
	tag := int64(r.lineAddr(a))
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == tag {
			set[i].lastUse = r.tick
			if isWrite {
				r.stats.WriteHits++
				if r.cfg.Write == WriteBack {
					set[i].dirty = true
					return Result{Hit: true}
				}
				return Result{Hit: true, WriteThrough: true}
			}
			r.stats.ReadHits++
			return Result{Hit: true}
		}
	}
	if isWrite {
		r.stats.WriteMisses++
		if r.cfg.Alloc == ReadAllocate {
			return Result{WriteThrough: true}
		}
	} else {
		r.stats.ReadMisses++
	}
	victim := 0
	for i := range set {
		if !set[i].valid {
			victim = i
			break
		}
		if set[i].lastUse < set[victim].lastUse {
			victim = i
		}
	}
	res := Result{Filled: true}
	if set[victim].valid && set[victim].dirty {
		res.WriteBack = access.Addr(set[victim].tag)
		res.HasWriteBack = true
		r.stats.WriteBacks++
	}
	set[victim] = refLine{tag: tag, valid: true, lastUse: r.tick}
	if isWrite {
		if r.cfg.Write == WriteBack {
			set[victim].dirty = true
		} else {
			res.WriteThrough = true
		}
	}
	return res
}

// find returns the resident line holding a, or nil.
func (r *refCache) find(a access.Addr) *refLine {
	set := r.set(a)
	for i := range set {
		if set[i].valid && set[i].tag == int64(r.lineAddr(a)) {
			return &set[i]
		}
	}
	return nil
}

func (r *refCache) contains(a access.Addr) bool { return r.find(a) != nil }

func (r *refCache) dirty(a access.Addr) bool {
	l := r.find(a)
	return l != nil && l.dirty
}

func (r *refCache) invalidate(a access.Addr) (present, dirty bool) {
	l := r.find(a)
	if l == nil {
		return false, false
	}
	dirty = l.dirty
	*l = refLine{}
	r.stats.Invalidations++
	return true, dirty
}

func (r *refCache) invalidateAll() {
	for s := range r.sets {
		for i := range r.sets[s] {
			if r.sets[s][i].valid {
				r.stats.Invalidations++
			}
			r.sets[s][i] = refLine{}
		}
	}
	r.tick = 0
}

func (r *refCache) setDirty(a access.Addr) bool {
	l := r.find(a)
	if l != nil {
		l.dirty = true
	}
	return l != nil
}

func (r *refCache) clean(a access.Addr) {
	if l := r.find(a); l != nil {
		l.dirty = false
	}
}

// modelledGeometries are the six cache levels of the three modelled
// machines (§3): the T3D's L1, the T3E's L1 and L2, and the DEC
// 8400's L1, L2 and board-level L3.
func modelledGeometries() []Config {
	l1 := Config{Name: "L1", Size: 8 * units.KB, LineSize: 32, Assoc: 1,
		Write: WriteThrough, Alloc: ReadAllocate}
	l2 := Config{Name: "L2", Size: 96 * units.KB, LineSize: 32, Assoc: 3,
		Write: WriteBack, Alloc: ReadWriteAllocate, Shared: true}
	l3 := Config{Name: "L3", Size: 4 * units.MB, LineSize: 64, Assoc: 1,
		Write: WriteBack, Alloc: ReadWriteAllocate}
	named := func(c Config, machine string) Config {
		c.Name = machine + "-" + c.Name
		return c
	}
	return []Config{
		named(l1, "t3d"),
		named(l1, "t3e"), named(l2, "t3e"),
		named(l1, "8400"), named(l2, "8400"), named(l3, "8400"),
	}
}

// scanCounts recounts the current generation's live and dirty lines
// the slow way, for checking the running counts.
func scanCounts(c *Cache) (live, dirty int64) {
	for i := range c.lines {
		if c.lines[i].gen == c.gen {
			live++
			if c.lines[i].dirty {
				dirty++
			}
		}
	}
	return live, dirty
}

// randomAddr draws an address that mostly falls in a handful of sets,
// with enough distinct tags per set to force conflicts and LRU
// replacement, and occasionally anywhere in a space four times the
// cache's size.
func randomAddr(rng *rand.Rand, c *Cache) access.Addr {
	lineSize := int64(c.cfg.LineSize)
	sets := c.setMask + 1
	word := int64(rng.Intn(int(lineSize/8))) * 8
	if rng.Intn(8) == 0 {
		return access.Addr(rng.Int63n(4*int64(c.cfg.Size))) &^ 7
	}
	set := rng.Int63n(min(sets, 6))
	tag := rng.Int63n(3*c.assoc + 1)
	return access.Addr((tag*sets+set)*lineSize + word)
}

// TestDifferentialAgainstReference drives seeded random operation
// sequences through the flat store and the reference model over every
// modelled geometry, comparing every answer, the final counters, and
// after every operation the running live and dirty counts against a
// full scan.
func TestDifferentialAgainstReference(t *testing.T) {
	for _, cfg := range modelledGeometries() {
		for _, seed := range []int64{1, 2} {
			t.Run(fmt.Sprintf("%s/seed%d", cfg.Name, seed), func(t *testing.T) {
				c, ref := New(cfg), newRef(cfg)
				rng := rand.New(rand.NewSource(seed))
				for op := 0; op < 2000; op++ {
					a := randomAddr(rng, c)
					var got, want string
					switch k := rng.Intn(100); {
					case k < 40:
						got, want = fmt.Sprint(c.Access(a, false)), fmt.Sprint(ref.access(a, false))
					case k < 65:
						got, want = fmt.Sprint(c.Access(a, true)), fmt.Sprint(ref.access(a, true))
					case k < 72:
						p, d := c.Invalidate(a)
						rp, rd := ref.invalidate(a)
						got, want = fmt.Sprint(p, d), fmt.Sprint(rp, rd)
					case k < 79:
						c.Clean(a)
						ref.clean(a)
					case k < 86:
						got, want = fmt.Sprint(c.SetDirty(a)), fmt.Sprint(ref.setDirty(a))
					case k < 92:
						got, want = fmt.Sprint(c.Contains(a)), fmt.Sprint(ref.contains(a))
					case k < 99:
						got, want = fmt.Sprint(c.Dirty(a)), fmt.Sprint(ref.dirty(a))
					default:
						c.InvalidateAll()
						ref.invalidateAll()
						got, want = fmt.Sprint(c.tick), fmt.Sprint(ref.tick)
					}
					if got != want {
						t.Fatalf("op %d at %#x: got %s, reference %s", op, a, got, want)
					}
					if live, dirty := scanCounts(c); live != c.live || dirty != c.dirty {
						t.Fatalf("op %d: running counts live=%d dirty=%d, scan live=%d dirty=%d",
							op, c.live, c.dirty, live, dirty)
					}
				}
				if got := c.Stats(); got != ref.stats {
					t.Errorf("final stats %+v, reference %+v", got, ref.stats)
				}
			})
		}
	}
}

// TestGenerationWrapClears forces the generation to its last value
// and checks that the wrapping InvalidateAll really clears the lines:
// without the clear, a line stamped with generation 1 long ago would
// come back to life when the counter returns to 1.
func TestGenerationWrapClears(t *testing.T) {
	c := ev5L2()
	old := access.Addr(0x1000)
	c.Access(old, true) // stamped with generation 1
	c.InvalidateAll()   // generation 2: the line is stale

	c.gen = math.MaxUint32 // as if 2^32-3 more cold resets had run
	recent := access.Addr(0x2000)
	c.Access(recent, true)
	if !c.Contains(recent) || c.live != 1 || c.dirty != 1 {
		t.Fatalf("fill at the last generation: contains=%v live=%d dirty=%d",
			c.Contains(recent), c.live, c.dirty)
	}

	c.InvalidateAll()
	if c.gen != 1 {
		t.Fatalf("wrapped generation = %d, want 1", c.gen)
	}
	for i, l := range c.lines {
		if l != (line{}) {
			t.Fatalf("line %d survived the wrap-around clear: %+v", i, l)
		}
	}
	if c.Contains(old) || c.Dirty(old) || c.Contains(recent) {
		t.Fatalf("a line is resident after the wrap: old=%v recent=%v",
			c.Contains(old), c.Contains(recent))
	}
	if c.live != 0 || c.dirty != 0 || c.tick != 0 {
		t.Fatalf("after the wrap live=%d dirty=%d tick=%d", c.live, c.dirty, c.tick)
	}
	if got := c.Stats().Invalidations; got != 2 {
		t.Fatalf("invalidations = %d, want 2 (one line per reset)", got)
	}
}
