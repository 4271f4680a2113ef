package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"sync/atomic"
	"time"
)

// span is one timed call into a layer, recorded from the benchmark's
// side of the call.
type span struct {
	ID     int64 `json:"id"`
	Parent int64 `json:"parent,omitempty"`
	// Point is shared by every span of one grid point, query or
	// surface request; 0 for spans that belong to none.
	Point int64 `json:"point,omitempty"`
	// Name is the public function called, e.g. "bench.LoadSum".
	Name string `json:"name"`
	// Arg says what it was called on, e.g. "8400 l2 ws=64k stride=4".
	Arg string `json:"arg,omitempty"`
	// Start and End are ns since the tracer started.
	Start int64 `json:"start_ns"`
	End   int64 `json:"end_ns"`
}

func (s span) ms() float64 { return float64(s.End-s.Start) / 1e6 }

// tracer keeps spans in memory until the run ends. A nil tracer
// records nothing, so untraced code paths call it unconditionally.
type tracer struct {
	t0     time.Time
	ids    atomic.Int64
	points atomic.Int64
	mu     sync.Mutex
	spans  []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// id returns a fresh span ID, or 0 on a nil tracer.
func (t *tracer) id() int64 {
	if t == nil {
		return 0
	}
	return t.ids.Add(1)
}

// point returns a fresh point ID, or 0 on a nil tracer.
func (t *tracer) point() int64 {
	if t == nil {
		return 0
	}
	return t.points.Add(1)
}

// begin opens a span that end, on the same tracer, closes.
func (t *tracer) begin(parent, point int64, name, arg string) span {
	if t == nil {
		return span{}
	}
	return span{ID: t.id(), Parent: parent, Point: point, Name: name, Arg: arg, Start: int64(time.Since(t.t0))}
}

// end closes s.
func (t *tracer) end(s span) {
	if t == nil {
		return
	}
	s.End = int64(time.Since(t.t0))
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// add records a span the caller timed itself, under an ID from id.
func (t *tracer) add(id, parent, point int64, name, arg string, start, end time.Time) {
	if t == nil {
		return
	}
	s := span{ID: id, Parent: parent, Point: point, Name: name, Arg: arg,
		Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0))}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// stat is the per-name summary written beside the spans.
type stat struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	// SelfMS is the total minus the part of each span's interval
	// that its children cover.
	SelfMS float64 `json:"self_ms"`
}

// summary computes each span name's count, total and self time.
func summary(spans []span) []stat {
	kids := map[int64][]span{}
	for _, s := range spans {
		if s.Parent != 0 {
			kids[s.Parent] = append(kids[s.Parent], s)
		}
	}
	byName := map[string]*stat{}
	for _, s := range spans {
		st := byName[s.Name]
		if st == nil {
			st = &stat{Name: s.Name}
			byName[s.Name] = st
		}
		st.Count++
		st.TotalMS += s.ms()
		st.SelfMS += s.ms() - float64(covered(s, kids[s.ID]))/1e6
	}
	out := make([]stat, 0, len(byName))
	for _, k := range sortedKeys(byName) {
		out = append(out, *byName[k])
	}
	return out
}

// covered returns the ns of s's interval covered by the union of its
// children's intervals; children of a parallel Run overlap.
func covered(s span, children []span) int64 {
	iv := make([][2]int64, 0, len(children))
	for _, c := range children {
		lo, hi := max(c.Start, s.Start), min(c.End, s.End)
		if hi > lo {
			iv = append(iv, [2]int64{lo, hi})
		}
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total, end int64
	for _, x := range iv {
		if x[0] > end {
			end = x[0]
		}
		if x[1] > end {
			total += x[1] - end
			end = x[1]
		}
	}
	return total
}

// maxWritten bounds the spans written out; the summary covers all.
const maxWritten = 20000

// write saves the summary of every span and the first maxWritten
// spans as JSON.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	sort.Slice(t.spans, func(i, j int) bool { return t.spans[i].ID < t.spans[j].ID })
	b, err := json.Marshal(struct {
		Summary []stat `json:"summary"`
		Total   int    `json:"spans_total"`
		Spans   []span `json:"spans"`
	}{summary(t.spans), len(t.spans), t.spans[:min(len(t.spans), maxWritten)]})
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, b, 0o644)
}
