package rt

import (
	"os"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// This file wires the OMPT-style observability subsystem
// (internal/ompt) into the runtime. Every hook site guards on a nil
// tool so the disabled cost is one predictable branch; event
// construction and the Emit call happen only when a tool is attached.

// toolBox wraps the attached tool so the runtime can publish it with
// a single atomic pointer swap (interfaces are two words and cannot
// be stored atomically without a box).
type toolBox struct{ t ompt.Tool }

// SetTool attaches an event tool (nil detaches). The attachment is
// published atomically, so it may be swapped while parallel regions
// are in flight: threads observe either the old or the new tool at
// each hook site, never a torn value. Per-region pairing (region
// begin/end, implicit task begin/end, barrier enter/exit) uses the
// tool loaded at the opening hook, so a mid-region swap never splits
// a pair across tools.
func (r *Runtime) SetTool(t ompt.Tool) {
	if t == nil {
		r.tool.Store(nil)
		return
	}
	r.tool.Store(&toolBox{t: t})
}

// Tool returns the attached event tool, or nil.
func (r *Runtime) Tool() ompt.Tool { return r.loadTool() }

// loadTool is the hot-path tool read: one atomic pointer load.
func (r *Runtime) loadTool() ompt.Tool {
	if b := r.tool.Load(); b != nil {
		return b.t
	}
	return nil
}

// EnvTracer returns the tracer installed by OMP4GO_TRACE, or nil when
// tracing was not activated through the environment.
func (r *Runtime) EnvTracer() *ompt.Tracer { return r.envTracer }

// FlushTrace writes the environment-activated trace (OMP4GO_TRACE=
// <file>) to its file in Chrome trace_event format. It is a no-op
// when tracing was not activated through the environment. Call after
// the traced parallel regions have completed, typically at program
// exit.
func (r *Runtime) FlushTrace() error {
	if r.envTracer == nil || r.traceFile == "" {
		return nil
	}
	f, err := os.Create(r.traceFile)
	if err != nil {
		return err
	}
	werr := r.envTracer.WriteChromeTrace(f)
	cerr := f.Close()
	if werr != nil {
		return werr
	}
	return cerr
}

// emit sends one event to the attached tool. Callers check
// loadTool() != nil first so the disabled path never reaches here.
func (c *Context) emit(kind ompt.EventKind, a, b, dur int64, label string) {
	t := c.rt.loadTool()
	if t == nil {
		return
	}
	c.emitTo(t, kind, a, b, dur, label)
}

// emitTo sends one event to an already-loaded tool; paired hook sites
// (begin/end) load once and use emitTo so both events reach the same
// tool even across a concurrent SetTool.
func (c *Context) emitTo(t ompt.Tool, kind ompt.EventKind, a, b, dur int64, label string) {
	t.Emit(ompt.Record{
		Time: ompt.Now(), Kind: kind, GTID: c.gtid, Team: c.team.regionID,
		A: a, B: b, Dur: dur, Label: label,
	})
}

// CriticalEnter enters the named critical section from this thread.
// The contention wait is metered into the always-on metrics registry
// (wait measured only when the lock is actually contended, so the
// uncontended path costs one TryLock and one clock read), and an
// acquire event is emitted when a tool is attached.
func (c *Context) CriticalEnter(name string) {
	r := c.rt
	mu := r.criticalLock(name)
	var wait int64
	if !mu.TryLock() {
		t0 := ompt.Now()
		mu.Lock()
		wait = ompt.Now() - t0
		// The histogram carries the wait-time sum; the
		// omp4go_critical_wait_ns_total counter mirrors it.
		r.metrics.Observe(c.gtid, metrics.HistCriticalWait, wait)
		if pb := c.team.profBucket; pb != nil {
			c.attribute(pb, prof.Critical, wait)
		}
	}
	// The entry timestamp stacks for the hold-time measurement on
	// exit (critical sections of different names may nest).
	c.critT0 = append(c.critT0, ompt.Now())
	if t := r.loadTool(); t != nil {
		c.emitTo(t, ompt.EvCriticalAcquire, 0, 0, wait, name)
	}
}

// CriticalExit leaves the named critical section, metering the hold
// duration and emitting a release event when a tool is attached.
func (c *Context) CriticalExit(name string) {
	r := c.rt
	if n := len(c.critT0); n > 0 {
		t0 := c.critT0[n-1]
		c.critT0 = c.critT0[:n-1]
		hold := ompt.Now() - t0
		r.metrics.Observe(c.gtid, metrics.HistCriticalHold, hold)
		if t := r.loadTool(); t != nil {
			c.emitTo(t, ompt.EvCriticalRelease, 0, 0, hold, name)
		}
	}
	r.CriticalExit(name)
}

// ReductionMerge notes that this thread merged its reduction partial
// into the shared result (the caller performs the merge itself, under
// whatever lock the construct requires). Tooling only; a no-op with
// no tool attached.
func (c *Context) ReductionMerge(ident string) {
	if t := c.rt.loadTool(); t != nil {
		c.emitTo(t, ompt.EvReduceMerge, 0, 0, 0, ident)
	}
}
