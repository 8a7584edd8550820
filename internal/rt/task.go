package rt

import (
	"fmt"
	"sync"
	"sync/atomic"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
)

// Task states, as in the paper: free, in-progress, completed.
const (
	taskFree int64 = iota
	taskInProgress
	taskDone
)

// task is one deferred (or undeferred) task instance, carrying the
// execution state, a completion event, the task function, and — for
// the legacy list scheduler only — the linked-list next-reference of
// the paper's shared queue (§III-E).
type task struct {
	fn       func(*Context) error
	state    Counter
	done     Event
	parent   *task
	children Counter // outstanding direct children (for taskwait)
	explicit bool
	final    bool
	next     atomic.Pointer[task] // list scheduler only
	err      error

	// undeferred marks a task that ran inline on its encountering
	// thread (if-clause false, or inside a final task): its error
	// returns to the submitter from SubmitTask instead of being
	// recorded for a later scheduling point.
	undeferred bool

	// Dependence bookkeeping (depend.go). depMu guards npred (the
	// unresolved-predecessor count, +1 submission hold while depend
	// clauses register), succs (tasks gated on this one) and
	// depDrained (successor release done); hasDeps gates the
	// completion-time release pass so dependence-free tasks never
	// touch the mutex. deps is the tracker resolving this task's
	// children's depend clauses against each other.
	hasDeps    bool
	depMu      sync.Mutex
	npred      int
	succs      []*task
	depDrained bool
	deps       *depTracker

	// tg is the innermost taskgroup enclosing the task's creation
	// (nil outside any taskgroup region).
	tg *taskgroup

	// childErrMu guards childErrs and errsClosed: failures of
	// completed descendant tasks parked here until this task's next
	// taskwait/taskgroup-end drains them, or until its own completion
	// forwards them to the nearest still-collecting ancestor.
	childErrMu sync.Mutex
	childErrs  []error
	errsClosed bool

	// id and startNS serve the observability subsystem: id is
	// non-zero only for tasks created while a tool was attached.
	id      int64
	startNS int64
}

func newTask(l Layer, fn func(*Context) error, parent *task, explicit bool) *task {
	return &task{
		fn:       fn,
		state:    NewCounter(l),
		done:     NewEvent(l),
		parent:   parent,
		children: NewCounter(l),
		explicit: explicit,
	}
}

// resetImplicit returns a joined member's implicit task to its
// initial state for team recycling (runtime.go). Only valid at
// quiescence: state back at free-equivalent, no outstanding children.
func (t *task) resetImplicit() {
	t.fn = nil
	t.state.Store(taskFree)
	if t.done.IsSet() { // implicit tasks normally never complete-signal
		t.done.Clear()
	}
	t.parent = nil
	t.children.Store(0)
	t.explicit = false
	t.final = false
	t.next.Store(nil)
	t.err = nil
	t.undeferred = false
	t.hasDeps = false
	t.npred = 0
	t.succs = nil
	t.depDrained = false
	t.deps = nil
	t.tg = nil
	t.childErrs = nil
	t.errsClosed = false
	t.id, t.startNS = 0, 0
}

// newListQueue builds the paper's shared linked-list queue (§III-E):
// enqueueing updates the tail's next-reference — the mutex
// implementation locks around the update (Python runtime), the atomic
// one uses compare_exchange (cruntime). It remains available as the
// "list" scheduler mode for differential tests against the default
// work-stealing scheduler (sched.go).
func newListQueue(l Layer) taskScheduler {
	if l == LayerAtomic {
		q := &atomicTaskQueue{layer: l}
		q.reset()
		return q
	}
	return &mutexTaskQueue{}
}

// mutexTaskQueue is the Python-runtime flavour: one mutex guards both
// the tail update on submit and the scan on take.
type mutexTaskQueue struct {
	mu         sync.Mutex
	head, tail *task
}

func (q *mutexTaskQueue) submit(_ int, t *task) bool {
	q.mu.Lock()
	if q.tail == nil {
		q.head, q.tail = t, t
	} else {
		q.tail.next.Store(t)
		q.tail = t
	}
	q.mu.Unlock()
	return false
}

func (q *mutexTaskQueue) take(int) (*task, int) {
	q.mu.Lock()
	defer q.mu.Unlock()
	// Drop the completed prefix, then claim the first free node.
	for q.head != nil && q.head.state.Load() == taskDone {
		q.head = q.head.next.Load()
	}
	if q.head == nil {
		q.tail = nil
	}
	for n := q.head; n != nil; n = n.next.Load() {
		if n.state.CompareAndSwap(taskFree, taskInProgress) {
			return n, -1
		}
	}
	return nil, -1
}

func (q *mutexTaskQueue) hasRunnable() bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	for n := q.head; n != nil; n = n.next.Load() {
		if n.state.Load() == taskFree {
			return true
		}
	}
	return false
}

func (q *mutexTaskQueue) runnable() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for t := q.head; t != nil; t = t.next.Load() {
		if t.state.Load() == taskFree {
			n++
		}
	}
	return n
}

func (q *mutexTaskQueue) retained() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	n := 0
	for t := q.head; t != nil; t = t.next.Load() {
		n++
	}
	return n
}

func (q *mutexTaskQueue) reset() {
	q.mu.Lock()
	q.head, q.tail = nil, nil
	q.mu.Unlock()
}

// depths: the shared list has no per-member queues to introspect.
func (q *mutexTaskQueue) depths() []int { return nil }

// atomicTaskQueue is the cruntime flavour: enqueue installs the
// next-reference with compare_exchange, and consumers advance the
// head hint past completed nodes without locking.
type atomicTaskQueue struct {
	layer Layer
	head  atomic.Pointer[task]
	tail  atomic.Pointer[task]
}

func (q *atomicTaskQueue) submit(_ int, t *task) bool {
	for {
		tl := q.tail.Load()
		if tl.next.CompareAndSwap(nil, t) {
			q.tail.CompareAndSwap(tl, t)
			return false
		}
		// Help a stalled enqueuer move the tail forward.
		q.tail.CompareAndSwap(tl, tl.next.Load())
	}
}

func (q *atomicTaskQueue) take(int) (*task, int) {
	// Advance the head hint past completed nodes (nodes are never
	// recycled, so racing advances are safe under GC).
	for {
		h := q.head.Load()
		n := h.next.Load()
		if n == nil || n.state.Load() != taskDone {
			break
		}
		q.head.CompareAndSwap(h, n)
	}
	for n := q.head.Load().next.Load(); n != nil; n = n.next.Load() {
		if n.state.CompareAndSwap(taskFree, taskInProgress) {
			return n, -1
		}
	}
	return nil, -1
}

func (q *atomicTaskQueue) hasRunnable() bool {
	for n := q.head.Load().next.Load(); n != nil; n = n.next.Load() {
		if n.state.Load() == taskFree {
			return true
		}
	}
	return false
}

func (q *atomicTaskQueue) runnable() int {
	n := 0
	for t := q.head.Load().next.Load(); t != nil; t = t.next.Load() {
		if t.state.Load() == taskFree {
			n++
		}
	}
	return n
}

func (q *atomicTaskQueue) retained() int {
	n := 0
	for t := q.head.Load().next.Load(); t != nil; t = t.next.Load() {
		n++
	}
	return n
}

// reset reinstalls a fresh sentinel, dropping the chain of completed
// nodes a recycled team would otherwise retain.
func (q *atomicTaskQueue) reset() {
	sentinel := &task{state: NewCounter(q.layer)}
	sentinel.state.Store(taskDone)
	q.head.Store(sentinel)
	q.tail.Store(sentinel)
}

// depths: the shared list has no per-member queues to introspect.
func (q *atomicTaskQueue) depths() []int { return nil }

// TaskOpts carries the task directive clauses the runtime consumes.
type TaskOpts struct {
	// If false (with IfSet), the task is undeferred: the encountering
	// thread suspends and executes it immediately.
	If    bool
	IfSet bool
	// Final makes every descendant task included (executed inline).
	Final    bool
	FinalSet bool
	// Depends lists the task's depend clause items (depend.go): the
	// task waits for the unfinished siblings it must serialize after
	// and is recorded as reader/writer of each key for later
	// siblings. An undeferred task still obeys its dependences — its
	// encountering thread waits for them.
	Depends []Dep
}

// SubmitTask implements the task directive: fn is packaged with its
// context into a task object and placed on the team's shared queue,
// unless the if clause (or an enclosing final task) forces immediate
// execution on the encountering thread.
func (c *Context) SubmitTask(opts TaskOpts, fn func(*Context) error) error {
	t := c.team
	// The if clause makes the task undeferred; descendants of a
	// final task are included (executed immediately) as well.
	undeferred := (opts.IfSet && !opts.If) || c.inFinal()
	tk := newTask(t.layer, fn, c.curTask, true)
	if opts.FinalSet && opts.Final {
		tk.final = true
	}
	if c.rt.loadTool() != nil {
		tk.id = c.rt.taskSeq.Add(1)
	}
	c.rt.metrics.Inc(c.gtid, metrics.TasksCreated)
	if undeferred {
		tk.undeferred = true
		tk.state.Store(taskInProgress)
		c.curTask.children.Add(1)
		registerTaskgroup(c, tk)
		if tk.id != 0 {
			c.emit(ompt.EvTaskCreate, tk.id, t.outstanding.Load(), 0, "undeferred")
		}
		if len(opts.Depends) > 0 {
			tk.hasDeps = true
			tk.npred = 1 // submission hold; see registerDeps
			registerDeps(c.curTask, tk, opts.Depends)
			if !tk.releaseHold() {
				c.rt.metrics.Inc(c.gtid, metrics.TasksDependStalled)
				t.waitDeps(c, tk)
			}
		}
		t.runClaimed(c, tk)
		return tk.err
	}
	c.curTask.children.Add(1)
	registerTaskgroup(c, tk)
	depth := t.outstanding.Add(1)
	if len(opts.Depends) > 0 {
		tk.hasDeps = true
		tk.npred = 1 // submission hold; see registerDeps
		registerDeps(c.curTask, tk, opts.Depends)
		if !tk.releaseHold() {
			// The task stays off the deques until its predecessors
			// complete; outstanding already counts it, so barriers
			// keep waiting for it. The depStalled gauge lets wait
			// loops classify their idle time as a dependence stall
			// while tasks sit gated here (decremented on release).
			c.rt.metrics.Inc(c.gtid, metrics.TasksDependStalled)
			t.depStalled.Add(1)
			if tk.id != 0 {
				c.emit(ompt.EvTaskCreate, tk.id, depth, 0, "stalled")
			}
			return nil
		}
	}
	overflowed := t.sched.submit(c.num, tk)
	if overflowed {
		c.rt.metrics.Inc(c.gtid, metrics.TasksOverflowed)
	}
	if tk.id != 0 {
		c.emit(ompt.EvTaskCreate, tk.id, depth, 0, "")
		if overflowed {
			c.emit(ompt.EvTaskOverflow, tk.id, depth, 0, "")
		}
	}
	// Threads waiting at a barrier are reawakened to consume newly
	// submitted work (§III-E).
	t.wakeAll()
	return nil
}

// claimTask claims the next runnable task for ctx's thread: local
// deque first, then overflow, then a round-robin steal. A successful
// steal from another member's deque is reported to the observability
// subsystem.
func (t *Team) claimTask(ctx *Context) *task {
	tk, victim := t.sched.take(ctx.num)
	if tk != nil && victim >= 0 && victim != ctx.num {
		t.rt.metrics.Inc(ctx.gtid, metrics.TasksStolen)
		if tk.id != 0 {
			ctx.emit(ompt.EvTaskSteal, tk.id, int64(victim), 0, "")
		}
	}
	return tk
}

func (c *Context) inFinal() bool {
	for tk := c.curTask; tk != nil; tk = tk.parent {
		if tk.final {
			return true
		}
	}
	return false
}

// runClaimed runs a task already marked in-progress, pushing it onto
// the thread's context stack for the duration. A task whose enclosing
// taskgroup was cancelled is completed without running its body.
func (t *Team) runClaimed(ctx *Context, tk *task) {
	t.rt.metrics.Inc(ctx.gtid, metrics.TasksRun)
	if tk.id != 0 && t.rt.loadTool() != nil {
		tk.startNS = ompt.Now()
		ctx.emit(ompt.EvTaskBegin, tk.id, 0, 0, "")
	}
	prevTask := ctx.curTask
	prevWS := ctx.wsDepth
	prevLoop := ctx.curLoop
	prevTG := ctx.curTG
	ctx.curTask = tk
	ctx.wsDepth = 0
	ctx.curLoop = nil
	ctx.curTG = tk.tg
	cancelled := false
	defer func() {
		if p := recover(); p != nil {
			tk.err = fmt.Errorf("panic in task: %v", p)
		}
		ctx.curTask = prevTask
		ctx.wsDepth = prevWS
		ctx.curLoop = prevLoop
		ctx.curTG = prevTG
		if tk.id != 0 && tk.startNS != 0 {
			label := ""
			if cancelled {
				label = "cancelled"
			}
			ctx.emit(ompt.EvTaskEnd, tk.id, 0, ompt.Now()-tk.startNS, label)
		}
		tk.state.Store(taskDone)
		tk.done.Set()
		if tk.hasDeps {
			t.releaseSuccessors(ctx, tk)
		}
		// Error delivery precedes both completion counters: a thread
		// observing pending == 0 in TaskgroupEnd or children == 0 in
		// TaskWait immediately drains childErrs, so the error must
		// already be parked on the ancestor when either count drops.
		t.deliverTaskErrors(tk)
		for g := tk.tg; g != nil; g = g.parent {
			g.pending.Add(-1)
		}
		if h := taskPendingDropHook; h != nil {
			h(tk)
		}
		if tk.parent != nil {
			tk.parent.children.Add(-1)
		}
		// Deferred tasks leave the outstanding count here, before the
		// completion broadcast: barrier predicates read outstanding
		// and taskwait predicates read children, and both must be
		// current when the single wake lands.
		if tk.explicit && !tk.undeferred {
			t.outstanding.Add(-1)
		}
		t.wakeAll()
	}()
	if tk.fn != nil {
		if tk.cancelledByGroup() {
			cancelled = true
			t.rt.metrics.Inc(ctx.gtid, metrics.TasksCancelled)
			return
		}
		tk.err = tk.fn(ctx)
	}
}

// TaskWait implements the taskwait directive: the current task waits
// for the completion of its direct children, executing queued tasks
// while it waits instead of blocking idle. Errors recorded by
// completed children surface here (they used to be swallowed and
// deferred to the region join).
func (c *Context) TaskWait() error {
	cur := c.curTask
	if n := cur.children.Load(); n > 0 {
		if err := c.waitTasks(&taskwaitSite, n, func() bool { return cur.children.Load() == 0 }); err != nil {
			return err
		}
	}
	return joinErrors(cur.takeChildErrs())
}

// taskPendingDropHook, when non-nil, runs in runClaimed's completion
// defer immediately after the task left its taskgroups' pending
// counts — the first instant a TaskgroupEnd can observe the group
// drained. Test injection for asserting the task's error is already
// parked on a collecting ancestor by then
// (TestTaskgroupPendingDropsAfterErrorParked).
var taskPendingDropHook func(tk *task)

// maxTaskErrs caps every task-error buffer (a task's childErrs, the
// team's region-join list): reporting keeps the first few failures
// and drops the rest rather than growing without bound.
const maxTaskErrs = 16

// deliverTaskErrors flushes a completed task's unreported failures to
// the nearest ancestor still collecting: the task's own error — for
// deferred tasks; an undeferred task's error returned to its
// submitter from SubmitTask — plus any descendant errors no taskwait
// drained. Each task error is thereby delivered exactly once: to one
// taskwait/taskgroup-end, or, once it climbs to an implicit task, to
// the region join (runMember flushes implicit tasks after the closing
// barrier).
func (t *Team) deliverTaskErrors(tk *task) {
	tk.childErrMu.Lock()
	tk.errsClosed = true
	up := tk.childErrs
	tk.childErrs = nil
	tk.childErrMu.Unlock()
	if tk.err != nil && !tk.undeferred {
		up = append([]error{tk.err}, up...)
	}
	if len(up) == 0 {
		return
	}
	for a := tk.parent; a != nil; a = a.parent {
		a.childErrMu.Lock()
		if !a.errsClosed {
			if room := maxTaskErrs - len(a.childErrs); room > 0 {
				if room > len(up) {
					room = len(up)
				}
				a.childErrs = append(a.childErrs, up[:room]...)
			}
			a.childErrMu.Unlock()
			return
		}
		a.childErrMu.Unlock()
	}
	// No collecting ancestor remains (the whole chain completed
	// before this flush) — fall back to the region-join list.
	for _, e := range up {
		t.recordTaskError(e)
	}
}

// takeChildErrs drains the errors recorded by completed descendants
// (the taskwait and taskgroup-end scheduling points).
func (tk *task) takeChildErrs() []error {
	tk.childErrMu.Lock()
	errs := tk.childErrs
	tk.childErrs = nil
	tk.childErrMu.Unlock()
	return errs
}

// recordTaskError keeps the first few task errors for reporting at
// the region join.
func (t *Team) recordTaskError(err error) {
	t.taskErrMu.Lock()
	if len(t.taskErrs) < maxTaskErrs {
		t.taskErrs = append(t.taskErrs, err)
	}
	t.taskErrMu.Unlock()
}

func (t *Team) takeTaskErrors() []error {
	t.taskErrMu.Lock()
	errs := t.taskErrs
	t.taskErrs = nil
	t.taskErrMu.Unlock()
	return errs
}
