package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"
)

// span is one timed call into a layer, recorded around the public
// entry point from the benchmark's side. Parent is 0 for a root span.
// Attrs carry the counts the call returned (steps, ompt stats, MPI
// counters), so the per-layer numbers are derived from the trace alone.
type span struct {
	ID     int64              `json:"id"`
	Parent int64              `json:"parent"`
	Name   string             `json:"name"`
	Start  int64              `json:"start_ns"`
	End    int64              `json:"end_ns"`
	Tags   map[string]string  `json:"tags,omitempty"`
	Attrs  map[string]float64 `json:"attrs,omitempty"`
}

func (s *span) seconds() float64 { return float64(s.End-s.Start) / 1e9 }

// tracer keeps spans in memory until the run ends. A nil *tracer is
// the untraced run: every method is a no-op, so timed code calls it
// unconditionally.
type tracer struct {
	origin time.Time
	mu     sync.Mutex
	spans  []*span
}

func newTracer() *tracer { return &tracer{origin: time.Now()} }

// begin opens a span; end closes it and files it. Spans are filed at
// end so a span still open when the run is abandoned is not reported.
func (t *tracer) begin(name string, parent *span, tags map[string]string) *span {
	if t == nil {
		return nil
	}
	s := &span{Name: name, Tags: tags, Start: time.Since(t.origin).Nanoseconds()}
	if parent != nil {
		s.Parent = parent.ID
	}
	return s
}

func (t *tracer) end(s *span, attrs map[string]float64) {
	if t == nil {
		return
	}
	s.End = time.Since(t.origin).Nanoseconds()
	s.Attrs = attrs
	t.mu.Lock()
	s.ID = int64(len(t.spans) + 1)
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// byName returns the filed spans with the given name, in end order.
func (t *tracer) byName(name string) []*span {
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []*span
	for _, s := range t.spans {
		if s.Name == name {
			out = append(out, s)
		}
	}
	return out
}

// seconds returns the durations of the named spans.
func (t *tracer) seconds(name string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		out = append(out, s.seconds())
	}
	return out
}

// attr returns one attribute of every named span that carries it.
func (t *tracer) attr(name, key string) []float64 {
	var out []float64
	for _, s := range t.byName(name) {
		if v, ok := s.Attrs[key]; ok {
			out = append(out, v)
		}
	}
	return out
}

// write stores the trace as JSON, spans in start order.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	spans := append([]*span(nil), t.spans...)
	t.mu.Unlock()
	sort.SliceStable(spans, func(i, j int) bool { return spans[i].Start < spans[j].Start })
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Spans []*span `json:"spans"`
	}{spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
