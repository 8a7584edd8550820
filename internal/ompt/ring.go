package ompt

import "sync"

// DefaultRingSize is the per-thread ring capacity (records) used when
// a Tracer is created with size 0. At 16384 records × ~80 bytes a
// busy thread holds ~1.3 MB of trace.
const DefaultRingSize = 1 << 14

// ring is a bounded ring buffer of records. Each ring has one
// producer in practice (the thread owning its GTID), so the mutex is
// uncontended on the push path; it buys the one property a live
// reader needs: a coherent snapshot while the producer is still
// pushing (a flight dump of a wedged program, /metrics reading the
// drop count mid-region). When the ring wraps, the oldest records are
// overwritten and counted as dropped — tracing never blocks on a
// reader or grows without bound.
type ring struct {
	mu  sync.Mutex
	buf []Record
	// head is the total number of records ever pushed; the next
	// record lands at buf[head%len(buf)].
	head uint64
}

// newRing creates a ring with capacity rounded up to a power of two.
func newRing(size int) *ring {
	if size <= 0 {
		size = DefaultRingSize
	}
	capacity := 1
	for capacity < size {
		capacity <<= 1
	}
	return &ring{buf: make([]Record, capacity)}
}

// push appends one record, overwriting the oldest when full.
func (r *ring) push(rec Record) {
	r.mu.Lock()
	r.buf[r.head%uint64(len(r.buf))] = rec
	r.head++
	r.mu.Unlock()
}

// dropped returns the number of records lost to wrapping.
func (r *ring) dropped() uint64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if n := uint64(len(r.buf)); r.head > n {
		return r.head - n
	}
	return 0
}

// snapshot returns the retained records in push order plus the count
// of records lost to wrapping.
func (r *ring) snapshot() (recs []Record, dropped uint64) {
	r.mu.Lock()
	defer r.mu.Unlock()
	n := uint64(len(r.buf))
	if r.head <= n {
		out := make([]Record, r.head)
		copy(out, r.buf[:r.head])
		return out, 0
	}
	// The ring wrapped: the oldest retained record is at head%n.
	out := make([]Record, n)
	start := r.head % n
	copy(out, r.buf[start:])
	copy(out[n-start:], r.buf[:start])
	return out, r.head - n
}
