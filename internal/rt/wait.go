package rt

import (
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// This file holds the one wait path every task-draining
// synchronization point shares: a waiting thread runs pending tasks
// instead of idling (§III-E of the paper). A waitSite describes what a
// site reports; a waitSpan is one thread's pass through it, and books
// the measured wait to every sink — OMPT events, the metrics
// histogram, the profiler and the introspection marker — in one place.

// noHist marks a wait site without an always-on wait histogram.
const noHist metrics.HistID = -1

// waitSite describes one task-draining synchronization point.
type waitSite struct {
	// name is the introspection name: the /debug/omp "wait" string and
	// the watchdog's stall kind. It also names the construct in a
	// broken-team abort.
	name string
	// state is the profiler state of the wait not classified by a park.
	state prof.State
	// stealIdle classifies parks while explicit tasks are outstanding
	// as steal_idle (runnable work exists elsewhere) rather than state.
	stealIdle bool
	// hist is the always-on wait histogram, or noHist.
	hist metrics.HistID
	// enter and exit are the span's OMPT events (EvNone for none); the
	// exit event carries the wait as Dur.
	enter, exit ompt.EventKind
	// detail renders the /debug/omp "wait_for" string from the count
	// the caller passes to begin; nil for none.
	detail func(n int64) string
}

var (
	barrierSite = waitSite{name: "barrier", state: prof.BarrierWait, stealIdle: true,
		hist: metrics.HistBarrierWait, enter: ompt.EvBarrierEnter, exit: ompt.EvBarrierExit}
	taskwaitSite = waitSite{name: "taskwait", state: prof.Taskwait, hist: noHist,
		detail: func(n int64) string { return itoa(int(n)) + " child task(s)" }}
	taskgroupSite = waitSite{name: "taskgroup", state: prof.TaskgroupWait, hist: noHist,
		detail: func(id int64) string {
			if id == 0 {
				return "taskgroup"
			}
			return "taskgroup #" + itoa(int(id))
		}}
	dependSite = waitSite{name: "depend", state: prof.DependStall, hist: noHist,
		detail: func(n int64) string { return itoa(int(n)) + " unresolved predecessor(s)" }}
)

// waitSpan is one thread's pass through a waitSite, kept on the
// waiter's stack: begin opens it, clock starts the wait clock,
// drain runs claimed tasks and parks, and end books the wait.
type waitSpan struct {
	c    *Context
	site *waitSite
	pb   *prof.Bucket
	// tool receives the span events; nil when the site has none or no
	// tool was attached at begin.
	tool ompt.Tool
	a, b int64 // span event payload (barrier kind and epoch)
	// marked is set when the introspection marker was published.
	marked bool
	// t0 starts the measured wait when timed. An untimed span (the
	// clock-free fast path) measures only its parks.
	t0    int64
	timed bool
	// taskNS is time spent running claimed tasks, whose own wait
	// sites attribute themselves; depNS and stealNS are classified
	// parks.
	taskNS, depNS, stealNS int64
}

// begin opens a zero span for c at site: it emits the site's enter
// event when a tool is attached and publishes the introspection marker
// when introspection is on. n feeds the site's detail string. The span
// is filled in place — it sits on the barrier's hot path, where
// returning it by value would cost a block copy per barrier.
func (sp *waitSpan) begin(c *Context, site *waitSite, a, b, n int64) {
	sp.c, sp.site, sp.pb, sp.a, sp.b = c, site, c.team.profBucket, a, b
	if site.enter != ompt.EvNone {
		if sp.tool = c.rt.loadTool(); sp.tool != nil {
			// The exit event wants the whole wait, so a traced span
			// reads the clock before anything else.
			sp.t0, sp.timed = ompt.Now(), true
			c.emitTo(sp.tool, site.enter, a, b, 0, "")
		}
	}
	if c.rt.obs.Load() != nil {
		// The marker lets the watchdog and /debug/omp tell a thread
		// blocked here from one still executing its body.
		sp.marked = true
		c.waitSince.Store(ompt.Now())
		if site.detail != nil {
			d := site.detail(n)
			c.waitDetail.Store(&d)
		}
		c.waitSite.Store(site)
	}
}

// clock starts the wait clock when a sink wants the wait measured:
// the site's histogram or the profiler. settled marks an arrival that
// ends the wait itself (the epoch-completing barrier arrival): it
// reads no clock, and only the parks it still makes are measured.
func (sp *waitSpan) clock(settled bool) {
	if !sp.timed && !settled && (sp.site.hist != noHist || sp.pb != nil) {
		sp.t0, sp.timed = ompt.Now(), true
	}
}

// drain is the task-consuming wait: until done holds, run a claimed
// task, abort when the team is broken, or park until new work, a
// broken team or done. done must be monotonic with respect to the
// team's wake events (see waitFor).
func (sp *waitSpan) drain(done func() bool) error {
	c := sp.c
	t := c.team
	for !done() {
		if tk := t.claimTask(c); tk != nil {
			if sp.timed {
				s := ompt.Now()
				t.runClaimed(c, tk)
				sp.taskNS += ompt.Now() - s
			} else {
				t.runClaimed(c, tk)
			}
			continue
		}
		if t.broken.Load() != 0 {
			return newBrokenAbort(sp.site.name)
		}
		sp.park(func() bool {
			return done() || t.sched.hasRunnable() || t.broken.Load() != 0
		})
	}
	return nil
}

// park blocks until pred holds. With the profiler on, a park while
// dependence-stalled tasks gate the queues is measured as a depend
// stall, and — at sites that classify it — one while tasks are
// outstanding elsewhere as steal idling; the rest of the wait is the
// site's own state, derived at end without clock reads here.
func (sp *waitSpan) park(pred func() bool) {
	t := sp.c.team
	state := sp.site.state
	if sp.pb != nil {
		if t.depStalled.Load() > 0 {
			state = prof.DependStall
		} else if sp.site.stealIdle && t.outstanding.Load() > 0 {
			state = prof.StealIdle
		}
	}
	if state == sp.site.state {
		t.waitFor(pred)
		return
	}
	s := ompt.Now()
	t.waitFor(pred)
	if state == prof.DependStall {
		sp.depNS += ompt.Now() - s
	} else {
		sp.stealNS += ompt.Now() - s
	}
}

// end closes the span: it clears the introspection marker and books
// the wait — the time in the span minus the time running claimed
// tasks — to the histogram, the profiler and the exit event. stamp is
// an end time the caller already holds (the barrier's release stamp),
// 0 for none; a traced span, or a stamp older than the span's start,
// reads the clock instead.
func (sp *waitSpan) end(stamp int64) {
	c := sp.c
	if sp.marked {
		// waitSince and waitDetail are cleared with the site so a
		// later sample never pairs a fresh wait with stale values.
		c.waitSite.Store(nil)
		c.waitSince.Store(0)
		c.waitDetail.Store(nil)
	}
	if !sp.timed {
		// The parks were measured directly; attribute them so a gated
		// dependence chain is never misread as compute.
		if sp.pb != nil {
			c.attribute(sp.pb, prof.DependStall, sp.depNS)
			c.attribute(sp.pb, prof.StealIdle, sp.stealNS)
		}
		return
	}
	end := stamp
	if sp.tool != nil || end < sp.t0 {
		end = ompt.Now()
	}
	wait := end - sp.t0 - sp.taskNS
	if wait < 0 {
		wait = 0
	}
	if wait > 0 {
		if sp.site.hist != noHist {
			// Striped by thread number, not gtid: the master's gtid is
			// fresh every region, which would walk cold stripe lines in
			// fork-join loops, while thread numbers are dense and stable
			// across recycled regions. The histogram also carries the
			// wait-time sum (its _ns_total counter mirrors it).
			c.rt.metrics.Observe(int32(c.num), sp.site.hist, wait)
		}
		if sp.pb != nil {
			// Clamp the classified parks to the measured wait so the
			// breakdown never exceeds it; the unparked remainder
			// (arrival skew, scan loops) is the site's own state.
			dep, steal := sp.depNS, sp.stealNS
			if dep > wait {
				dep, steal = wait, 0
			} else if dep+steal > wait {
				steal = wait - dep
			}
			c.attribute(sp.pb, sp.site.state, wait-dep-steal)
			c.attribute(sp.pb, prof.DependStall, dep)
			c.attribute(sp.pb, prof.StealIdle, steal)
		}
	}
	if sp.tool != nil {
		c.emitTo(sp.tool, sp.site.exit, sp.a, sp.b, wait, "")
	}
}

// waitTasks is the whole span of a drain site without an arrival
// step (taskwait, taskgroup end, undeferred depend wait).
func (c *Context) waitTasks(site *waitSite, n int64, done func() bool) error {
	var sp waitSpan
	sp.begin(c, site, 0, 0, n)
	sp.clock(false)
	err := sp.drain(done)
	sp.end(0)
	return err
}

// attribute books ns of this member's time to a profiler state. It is
// the one place time enters a bucket: the region-end compute share is
// the member's span minus profWaitNS, everything attributed before it
// (booking compute itself also bumps profWaitNS, which is harmless:
// the next region resets it).
func (c *Context) attribute(pb *prof.Bucket, s prof.State, ns int64) {
	if ns > 0 {
		pb.Add(int32(c.num), s, ns)
		c.profWaitNS += ns
	}
}
