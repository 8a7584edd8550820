package ompt

import (
	"sort"
	"sync"
)

// Tracer is the built-in Tool: it records events into one bounded
// ring buffer per thread (keyed by GTID) and exports them. Emit is a
// lock-free sync.Map read plus a push under the ring's own,
// uncontended mutex, so the tracer perturbs the thread timings it
// measures little, and every reader is safe while regions are still
// running.
type Tracer struct {
	ringSize int
	// rings maps GTID -> *ring. Each ring has one producer in practice
	// (the thread owning that GTID); the map itself is lock-free to
	// read.
	rings sync.Map
}

// NewTracer creates a tracer with the given per-thread ring capacity
// in records (0 means DefaultRingSize).
func NewTracer(ringSize int) *Tracer {
	return &Tracer{ringSize: ringSize}
}

// Emit records one event into the emitting thread's ring.
func (t *Tracer) Emit(rec Record) {
	v, ok := t.rings.Load(rec.GTID)
	if !ok {
		// First event from this thread: install its ring. LoadOrStore
		// keeps exactly one winner if the GTID were ever shared.
		v, _ = t.rings.LoadOrStore(rec.GTID, newRing(t.ringSize))
	}
	v.(*ring).push(rec)
}

// Records returns every retained event sorted by timestamp. It is
// safe while traced regions are still running: each ring is copied
// under its lock, so a live snapshot holds a coherent prefix of every
// thread's stream.
func (t *Tracer) Records() []Record {
	recs, _ := t.collect()
	return recs
}

// Dropped returns the number of events lost to ring-buffer wrapping.
// Like Records it is safe with live producers, so the /metrics
// endpoint can export it while regions are in flight.
func (t *Tracer) Dropped() uint64 {
	var dropped uint64
	t.rings.Range(func(_, v any) bool {
		dropped += v.(*ring).dropped()
		return true
	})
	return dropped
}

func (t *Tracer) collect() ([]Record, uint64) {
	var recs []Record
	var dropped uint64
	t.rings.Range(func(_, v any) bool {
		r, d := v.(*ring).snapshot()
		recs = append(recs, r...)
		dropped += d
		return true
	})
	sort.SliceStable(recs, func(i, j int) bool { return recs[i].Time < recs[j].Time })
	return recs, dropped
}

// Stats aggregates the retained events (see ComputeStats).
func (t *Tracer) Stats() *Stats {
	recs, dropped := t.collect()
	return ComputeStats(recs, dropped)
}
