package store

import "repro/internal/surface"

// lru is a bounded least-recently-used cache of decoded artifacts.
// It is intentionally minimal: a map for lookup and an intrusive
// doubly-linked list for recency, with the store's mutex providing
// exclusion. Values are the store's private clones — callers always
// receive copies — so an entry can live in the cache for the life of
// the process without aliasing caller state.
type lru struct {
	cap  int
	ents map[Key]*lruEntry
	head *lruEntry // most recently used
	tail *lruEntry // least recently used
}

// lruEntry holds one decoded surface. The store clones on both the
// put and the get side, so surf is never shared with callers.
type lruEntry struct {
	key        Key
	surf       *surface.Surface
	prev, next *lruEntry
}

func newLRU(capacity int) *lru {
	return &lru{cap: capacity, ents: make(map[Key]*lruEntry)}
}

// get returns the cached artifact and marks it most recently used.
func (l *lru) get(k Key) (*surface.Surface, bool) {
	e, ok := l.ents[k]
	if !ok {
		return nil, false
	}
	l.moveToFront(e)
	return e.surf, true
}

// put inserts or replaces k and returns how many entries were
// evicted to stay within capacity.
func (l *lru) put(k Key, v *surface.Surface) int {
	if e, ok := l.ents[k]; ok {
		e.surf = v
		l.moveToFront(e)
		return 0
	}
	e := &lruEntry{key: k, surf: v}
	l.ents[k] = e
	l.pushFront(e)
	evicted := 0
	for l.cap > 0 && len(l.ents) > l.cap {
		victim := l.tail
		l.unlink(victim)
		delete(l.ents, victim.key)
		evicted++
	}
	return evicted
}

// drop removes k if present (quarantine and staleness paths).
func (l *lru) drop(k Key) {
	if e, ok := l.ents[k]; ok {
		l.unlink(e)
		delete(l.ents, k)
	}
}

// keys returns the cached keys from most to least recently used —
// the eviction order, exposed for tests and diagnostics.
func (l *lru) keys() []Key {
	out := make([]Key, 0, len(l.ents))
	for e := l.head; e != nil; e = e.next {
		out = append(out, e.key)
	}
	return out
}

func (l *lru) len() int { return len(l.ents) }

func (l *lru) pushFront(e *lruEntry) {
	e.prev = nil
	e.next = l.head
	if l.head != nil {
		l.head.prev = e
	}
	l.head = e
	if l.tail == nil {
		l.tail = e
	}
}

func (l *lru) unlink(e *lruEntry) {
	if e.prev != nil {
		e.prev.next = e.next
	} else {
		l.head = e.next
	}
	if e.next != nil {
		e.next.prev = e.prev
	} else {
		l.tail = e.prev
	}
	e.prev, e.next = nil, nil
}

func (l *lru) moveToFront(e *lruEntry) {
	if l.head == e {
		return
	}
	l.unlink(e)
	l.pushFront(e)
}
