package rt

import (
	"sync"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
)

// This file implements OpenMP 4.x task dataflow on top of the task
// schedulers of task.go/sched.go:
//
//   - depend(in/out/inout) clauses: a per-generating-task dependence
//     tracker maps storage keys to the last out/inout writer and the
//     set of in readers since (libgomp's scheme). A new task counts
//     one predecessor per unfinished task it must serialize after
//     (out→in, in→out, out→out) and reaches the team scheduler only
//     when that count hits zero; completing tasks decrement their
//     successors and submit the newly-ready ones.
//   - taskgroup: a scoped wait on all descendant tasks created inside
//     the region, plus cancellation that marks not-yet-started
//     descendants to be skipped.
//   - taskloop: the collapsed iteration space of a LoopBounds
//     descriptor (worksharing.go) is chunked into child tasks under an
//     implicit taskgroup, sized by grainsize or num_tasks.

// DepKind classifies one depend clause item.
type DepKind int

// Dependence kinds, with OpenMP's serialization rules: a new in waits
// for the last out/inout on the same key; a new out/inout waits for
// the last out/inout and every in that read since.
const (
	DepIn DepKind = iota
	DepOut
	DepInOut
)

// String returns the clause spelling of the kind.
func (k DepKind) String() string {
	switch k {
	case DepIn:
		return "in"
	case DepOut:
		return "out"
	case DepInOut:
		return "inout"
	}
	return "depend(?)"
}

// Dep is one depend clause item: a storage key with a direction. Keys
// are compared with Go equality; any comparable value works (the
// MiniPy surface uses variable names, the native API whatever the
// caller passes — typically a pointer or an (array, index) pair).
type Dep struct {
	Key  any
	Kind DepKind
}

// In builds in dependences over the given keys.
func In(keys ...any) []Dep { return makeDeps(DepIn, keys) }

// Out builds out dependences over the given keys.
func Out(keys ...any) []Dep { return makeDeps(DepOut, keys) }

// InOut builds inout dependences over the given keys.
func InOut(keys ...any) []Dep { return makeDeps(DepInOut, keys) }

func makeDeps(k DepKind, keys []any) []Dep {
	ds := make([]Dep, len(keys))
	for i, key := range keys {
		ds[i] = Dep{Key: key, Kind: k}
	}
	return ds
}

// depCell records the dependence history of one storage key: the last
// out/inout writer and the in readers that arrived since it.
type depCell struct {
	lastOut *task
	readers []*task
}

// depTracker is the dependence hash of one task-generating task: its
// children's depend clauses are resolved against these cells. Only
// sibling tasks (children of the same generating task) can be ordered
// by depend clauses, as in OpenMP, so the tracker lives on the parent
// task and is consulted by the one thread executing it; the mutex
// covers untied-style migrations and keeps the invariant local.
type depTracker struct {
	mu    sync.Mutex
	cells map[any]*depCell
}

// registerDeps links tk behind the unfinished siblings its depend
// clauses serialize it after, recording tk into the parent's cells as
// the new reader or writer. The caller must hold tk's submission hold
// (npred starts at 1) so a predecessor completing mid-registration
// cannot release tk early.
func registerDeps(parent, tk *task, deps []Dep) {
	tr := parent.deps
	if tr == nil {
		tr = &depTracker{cells: make(map[any]*depCell)}
		parent.deps = tr
	}
	tr.mu.Lock()
	defer tr.mu.Unlock()
	for _, d := range deps {
		cell := tr.cells[d.Key]
		if cell == nil {
			cell = &depCell{}
			tr.cells[d.Key] = cell
		}
		switch d.Kind {
		case DepIn:
			addDepEdge(cell.lastOut, tk) // out→in
			cell.readers = append(cell.readers, tk)
		default: // DepOut, DepInOut
			for _, r := range cell.readers {
				addDepEdge(r, tk) // in→out
			}
			addDepEdge(cell.lastOut, tk) // out→out
			cell.lastOut = tk
			cell.readers = cell.readers[:0]
		}
	}
}

// addDepEdge orders succ after pred. A completed predecessor (its
// successor list already drained) imposes no wait; self-edges from a
// task naming the same key twice are ignored.
//
// The edge is counted on succ BEFORE it is published into pred.succs:
// the moment succ appears there, a pred completing on another thread
// decrements succ.npred, and an uncounted edge would let that
// decrement consume the caller's submission hold — releasing (and in
// the single-dep case double-submitting) the task while its remaining
// clauses are still registering. Counting first keeps npred ≥ hold +
// published edges at all times, so the hold is unconsumable until
// releaseHold. If pred turns out to be drained the count is undone;
// the hold keeps npred ≥ 1 throughout, so the decrement can never
// release the task itself.
func addDepEdge(pred, succ *task) {
	if pred == nil || pred == succ {
		return
	}
	succ.depMu.Lock()
	succ.npred++
	succ.depMu.Unlock()
	if h := depEdgePublishHook; h != nil {
		h(pred, succ)
	}
	pred.depMu.Lock()
	if pred.depDrained {
		pred.depMu.Unlock()
		succ.depMu.Lock()
		succ.npred--
		succ.depMu.Unlock()
		return
	}
	pred.succs = append(pred.succs, succ)
	pred.depMu.Unlock()
}

// depEdgePublishHook, when non-nil, runs in addDepEdge between
// counting an edge on the successor and publishing it on the
// predecessor — test injection for driving a predecessor completion
// into exactly that window (TestDependEdgePublishWindow).
var depEdgePublishHook func(pred, succ *task)

// releaseHold removes the submission hold placed before dependence
// registration and reports whether the task is ready for the
// scheduler (no unfinished predecessors remain).
func (tk *task) releaseHold() bool {
	tk.depMu.Lock()
	tk.npred--
	ready := tk.npred == 0
	tk.depMu.Unlock()
	return ready
}

// releaseSuccessors resolves the dependences of a completed task:
// every gated successor loses one predecessor, and tasks reaching
// zero enter the team scheduler. Runs in runClaimed's completion
// path, before the single team wake, so waiters observe the new
// runnable work when the broadcast lands.
func (t *Team) releaseSuccessors(ctx *Context, tk *task) {
	tk.depMu.Lock()
	tk.depDrained = true
	succs := tk.succs
	tk.succs = nil
	tk.depMu.Unlock()
	for _, s := range succs {
		s.depMu.Lock()
		s.npred--
		ready := s.npred == 0
		s.depMu.Unlock()
		// An undeferred task is not queued: its encountering thread
		// waits in waitDeps and picks up the npred flip from the
		// completion broadcast.
		if ready && !s.undeferred {
			t.enqueueReady(ctx, s, tk.id)
		}
	}
}

// enqueueReady submits a dependence-released task to the scheduler.
// Outstanding-task and taskgroup accounting happened at creation;
// only queue entry was deferred.
func (t *Team) enqueueReady(ctx *Context, tk *task, byID int64) {
	t.depStalled.Add(-1) // pairs with SubmitTask's deferred-stall increment
	t.rt.metrics.Inc(ctx.gtid, metrics.TasksDependReleased)
	if tk.id != 0 {
		ctx.emit(ompt.EvTaskDependResolved, tk.id, byID, 0, "")
	}
	if t.sched.submit(ctx.num, tk) {
		t.rt.metrics.Inc(ctx.gtid, metrics.TasksOverflowed)
		if tk.id != 0 {
			ctx.emit(ompt.EvTaskOverflow, tk.id, t.outstanding.Load(), 0, "")
		}
	}
}

// waitDeps blocks an undeferred task's encountering thread until the
// task's dependences resolve, executing queued tasks meanwhile: an
// if(false) task still obeys its depend clauses, only its execution
// moves onto the encountering thread. A broken team aborts the wait;
// the caller runs the task anyway and the body's next synchronization
// point reports the abort.
func (t *Team) waitDeps(c *Context, tk *task) {
	npred := func() int64 {
		tk.depMu.Lock()
		defer tk.depMu.Unlock()
		return int64(tk.npred)
	}
	if n := npred(); n > 0 && t.broken.Load() == 0 {
		_ = c.waitTasks(&dependSite, n, func() bool { return npred() == 0 || t.broken.Load() != 0 })
	}
}

// taskgroup is one taskgroup region instance. pending counts the
// not-yet-completed descendant tasks created inside the group (each
// task counts in every enclosing group, so ends wait without walking
// the task tree); cancelled marks unstarted descendants to be
// skipped.
type taskgroup struct {
	parent    *taskgroup
	pending   Counter
	cancelled Counter

	// id and startNS serve the observability subsystem: id is
	// non-zero only for groups opened while a tool was attached.
	id      int64
	startNS int64
}

// registerTaskgroup binds a newly created task to the encountering
// context's innermost taskgroup and counts it in every enclosing
// group.
func registerTaskgroup(c *Context, tk *task) {
	tk.tg = c.curTG
	for g := tk.tg; g != nil; g = g.parent {
		g.pending.Add(1)
	}
}

// cancelledByGroup reports whether any taskgroup enclosing the task's
// creation was cancelled; such a task is skipped instead of executed.
func (tk *task) cancelledByGroup() bool {
	for g := tk.tg; g != nil; g = g.parent {
		if g.cancelled.Load() != 0 {
			return true
		}
	}
	return false
}

// TaskgroupBegin opens a taskgroup region on this thread (the
// taskgroup directive). Tasks created until the matching TaskgroupEnd
// — including by descendant tasks — belong to the group.
func (c *Context) TaskgroupBegin() {
	tg := &taskgroup{
		parent:    c.curTG,
		pending:   NewCounter(c.team.layer),
		cancelled: NewCounter(c.team.layer),
	}
	c.rt.metrics.Inc(c.gtid, metrics.Taskgroups)
	if c.rt.loadTool() != nil {
		tg.id = c.rt.tgSeq.Add(1)
		tg.startNS = ompt.Now()
		c.emit(ompt.EvTaskgroupBegin, tg.id, 0, 0, "")
	}
	c.curTG = tg
}

// TaskgroupEnd closes the innermost taskgroup: the thread waits until
// every task of the group (descendants included) has completed,
// executing queued tasks while it waits. Errors recorded by completed
// children of the current task surface here, as at a taskwait.
func (c *Context) TaskgroupEnd() error {
	tg := c.curTG
	if tg == nil {
		return &MisuseError{Construct: "taskgroup",
			Msg: "taskgroup end without a matching begin"}
	}
	defer func() {
		c.curTG = tg.parent
		if tg.id != 0 {
			label := ""
			if tg.cancelled.Load() != 0 {
				label = "cancelled"
			}
			c.emit(ompt.EvTaskgroupEnd, tg.id, 0, ompt.Now()-tg.startNS, label)
		}
	}()
	if err := c.waitTasks(&taskgroupSite, tg.id, func() bool { return tg.pending.Load() == 0 }); err != nil {
		return err
	}
	return joinErrors(c.curTask.takeChildErrs())
}

// TaskgroupCancel cancels the innermost taskgroup enclosing the
// current task (cancel taskgroup): descendant tasks that have not yet
// started are skipped; already-running tasks complete normally — use
// TaskgroupCancelled as a cooperative cancellation point inside long
// bodies. Reports whether a group was active.
func (c *Context) TaskgroupCancel() bool {
	if c.curTG == nil {
		return false
	}
	c.curTG.cancelled.Store(1)
	return true
}

// TaskgroupCancelled reports whether any taskgroup enclosing the
// current task has been cancelled (the cancellation-point check).
func (c *Context) TaskgroupCancelled() bool {
	for g := c.curTG; g != nil; g = g.parent {
		if g.cancelled.Load() != 0 {
			return true
		}
	}
	return false
}

// TaskLoopOpts carries the taskloop clauses the runtime consumes.
type TaskLoopOpts struct {
	// Grainsize asks for chunks of at least this many iterations (the
	// grainsize clause); NumTasks for exactly that many chunk tasks
	// (num_tasks). They are mutually exclusive; with neither set the
	// iteration space splits into one chunk per team member.
	Grainsize int64
	NumTasks  int64
	// NoGroup skips the construct's implicit taskgroup (the nogroup
	// clause): completion is then observed by the next taskwait or
	// barrier instead of by TaskLoop returning.
	NoGroup bool
	// Depends gates every chunk task behind the given dependences
	// (and records the chunks as writers/readers for later siblings).
	Depends []Dep
	// IfSet/If and FinalSet/Final forward the if and final clauses to
	// every chunk task (the Set flag distinguishes absent from false).
	IfSet, If       bool
	FinalSet, Final bool
}

// TaskLoop implements the taskloop construct: the collapsed iteration
// space of b (a ForBounds descriptor) is chunked into child tasks,
// each invoked with a [lo, hi) range of linear iteration indices.
// Unless NoGroup is set the construct carries an implicit taskgroup:
// TaskLoop returns only after every chunk task (and its descendants)
// completed, surfacing their errors.
func (c *Context) TaskLoop(b *LoopBounds, opts TaskLoopOpts, body func(c *Context, lo, hi int64) error) error {
	if opts.Grainsize > 0 && opts.NumTasks > 0 {
		return &MisuseError{Construct: "taskloop",
			Msg: "grainsize and num_tasks are mutually exclusive"}
	}
	total := b.Total
	var n int64
	switch {
	case opts.Grainsize > 0:
		n = total / opts.Grainsize
	case opts.NumTasks > 0:
		n = opts.NumTasks
	default:
		n = int64(c.team.size)
	}
	if n > total {
		n = total
	}
	if n < 1 && total > 0 {
		n = 1
	}
	if !opts.NoGroup {
		c.TaskgroupBegin()
	}
	var submitErr error
	if n > 0 {
		base, rem := total/n, total%n
		lo := int64(0)
		for i := int64(0); i < n; i++ {
			sz := base
			if i < rem {
				sz++
			}
			clo, chi := lo, lo+sz
			lo = chi
			err := c.SubmitTask(TaskOpts{
				Depends: opts.Depends,
				IfSet:   opts.IfSet, If: opts.If,
				FinalSet: opts.FinalSet, Final: opts.Final,
			}, func(cc *Context) error {
				return body(cc, clo, chi)
			})
			// A non-nil submit error means the chunk ran undeferred
			// (inside a final task) and failed; stop chunking but
			// still close the group so the construct stays balanced.
			if err != nil {
				submitErr = err
				break
			}
		}
	}
	if !opts.NoGroup {
		gerr := c.TaskgroupEnd()
		if submitErr != nil {
			return submitErr
		}
		return gerr
	}
	return submitErr
}
