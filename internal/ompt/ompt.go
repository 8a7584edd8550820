// Package ompt is omp4go's runtime observability subsystem, modelled
// on the OMPT tool interface of the OpenMP specification. The runtime
// (internal/rt) emits typed events — parallel region begin/end,
// barrier enter/exit with wait-time, worksharing chunk dispatch, task
// lifecycle, critical-section contention, reduction merges — to an
// attached Tool. With no tool attached the entire subsystem costs one
// predictable nil-check branch per hook site.
//
// The built-in Tracer collects events into bounded per-thread ring
// buffers and exports them as a Chrome trace_event JSON (open in
// chrome://tracing or Perfetto) or as an aggregated text summary
// (per-thread wait time, load-imbalance factor, task-queue depth).
package ompt

import "time"

// EventKind identifies one runtime event type.
type EventKind uint8

// Runtime event kinds. The comments document how the Record fields A,
// B, Dur and Label are used for each kind.
const (
	EvNone EventKind = iota
	// EvParallelBegin: a parallel region forks. A = region id,
	// B = team size. Emitted on the encountering thread.
	EvParallelBegin
	// EvParallelEnd: the region joined. A = region id, B = team size,
	// Dur = region wall time.
	EvParallelEnd
	// EvImplicitTaskBegin: a team member starts its implicit task.
	// A = region id, B = thread number within the team.
	EvImplicitTaskBegin
	// EvImplicitTaskEnd: the member's implicit task finished
	// (after the region-end barrier). A = region id, B = thread num.
	EvImplicitTaskEnd
	// EvBarrierEnter: the thread arrives at a barrier.
	// A = BarrierImplicit or BarrierExplicit, B = barrier epoch.
	EvBarrierEnter
	// EvBarrierExit: the thread leaves the barrier. A = kind,
	// B = epoch, Dur = wait time (time in the barrier minus time
	// spent executing stolen tasks while waiting).
	EvBarrierExit
	// EvLoopBegin: a worksharing loop starts on this thread.
	// A = total (collapsed) iteration count, B = chunk size,
	// Label = schedule kind ("static", "dynamic", "guided").
	EvLoopBegin
	// EvLoopChunk: one claimed chunk finished executing. A = chunk
	// lower bound, B = exclusive upper bound (linear iteration
	// space), Dur = chunk execution time.
	EvLoopChunk
	// EvLoopEnd: the loop construct completed on this thread
	// (before its implicit barrier, if any).
	EvLoopEnd
	// EvTaskCreate: an explicit task was submitted. A = task id,
	// B = task-queue depth after submission (outstanding tasks);
	// Label = "undeferred" when the task runs inline.
	EvTaskCreate
	// EvTaskBegin: an explicit task starts executing. A = task id.
	EvTaskBegin
	// EvTaskEnd: an explicit task completed. A = task id,
	// Dur = execution time.
	EvTaskEnd
	// EvTaskSteal: a thread claimed a task from another team member's
	// deque (work-stealing scheduler). A = task id, B = victim thread
	// number. Emitted on the thief.
	EvTaskSteal
	// EvTaskOverflow: a submitted task spilled to the scheduler's
	// shared overflow list because the submitting thread's deque was
	// full. A = task id, B = outstanding-task depth at submission.
	EvTaskOverflow
	// EvCriticalAcquire: a critical section was entered.
	// Label = section name, Dur = contention wait time.
	EvCriticalAcquire
	// EvCriticalRelease: the critical section was left.
	// Label = section name, Dur = time the section was held.
	EvCriticalRelease
	// EvReduceMerge: one thread's reduction partial was merged into
	// the shared result. Label = reduction identifier.
	EvReduceMerge
	// EvTaskDependResolved: a dependence-gated task's last depend
	// predecessor completed and the task entered the scheduler.
	// A = released task id, B = completing predecessor's task id.
	// Emitted on the thread that resolved the final dependence.
	EvTaskDependResolved
	// EvTaskgroupBegin: the thread opened a taskgroup region.
	// A = taskgroup id.
	EvTaskgroupBegin
	// EvTaskgroupEnd: the taskgroup's scoped wait completed.
	// A = taskgroup id, Dur = begin-to-end wall time,
	// Label = "cancelled" when the group was cancelled.
	EvTaskgroupEnd
	// EvKernelEnter: a compiled loop kernel took over this member's
	// share of a worksharing loop (internal/compile's static-schedule
	// fast path; no EvLoopChunk events follow from this member).
	// A = total (linear) iteration count, B = static chunk size
	// (0 = block partition), Label = schedule kind.
	EvKernelEnter
)

// String returns the event kind name.
func (k EventKind) String() string {
	switch k {
	case EvParallelBegin:
		return "parallel-begin"
	case EvParallelEnd:
		return "parallel-end"
	case EvImplicitTaskBegin:
		return "implicit-task-begin"
	case EvImplicitTaskEnd:
		return "implicit-task-end"
	case EvBarrierEnter:
		return "barrier-enter"
	case EvBarrierExit:
		return "barrier-exit"
	case EvLoopBegin:
		return "loop-begin"
	case EvLoopChunk:
		return "loop-chunk"
	case EvLoopEnd:
		return "loop-end"
	case EvTaskCreate:
		return "task-create"
	case EvTaskBegin:
		return "task-begin"
	case EvTaskEnd:
		return "task-end"
	case EvTaskSteal:
		return "task-steal"
	case EvTaskOverflow:
		return "task-overflow"
	case EvCriticalAcquire:
		return "critical-acquire"
	case EvCriticalRelease:
		return "critical-release"
	case EvReduceMerge:
		return "reduce-merge"
	case EvTaskDependResolved:
		return "task-depend-resolved"
	case EvTaskgroupBegin:
		return "taskgroup-begin"
	case EvTaskgroupEnd:
		return "taskgroup-end"
	case EvKernelEnter:
		return "kernel-enter"
	}
	return "event(?)"
}

// Barrier kinds carried in the A field of barrier events.
const (
	// BarrierImplicit marks the implicit barrier at the end of a
	// parallel region or worksharing construct.
	BarrierImplicit int64 = 0
	// BarrierExplicit marks a user barrier directive.
	BarrierExplicit int64 = 1
)

// Record is one runtime event. Field use varies by Kind; see the
// EventKind constants.
type Record struct {
	// Time is nanoseconds since the process trace epoch (Now).
	Time int64
	// Dur is a duration in nanoseconds for completion events
	// (barrier wait, chunk execution, task execution, lock hold).
	Dur int64
	// A and B are kind-specific payloads (region/task ids, bounds,
	// epochs, queue depths).
	A, B int64
	// GTID is the emitting thread's global trace id, unique across
	// all teams and nesting levels of one runtime instance.
	GTID int32
	// Team is the id of the innermost parallel region the thread
	// belongs to.
	Team int32
	// Kind identifies the event.
	Kind EventKind
	// Label carries names: schedule kind, critical-section name,
	// reduction identifier.
	Label string
}

// Tool receives runtime events. Emit is called from every team
// thread concurrently and must be safe for concurrent use; the
// built-in Tracer routes each thread to its own ring.
type Tool interface {
	Emit(rec Record)
}

// epoch anchors the trace clock; all Record.Time values are offsets
// from it, which keeps Chrome-trace timestamps small.
var epoch = time.Now()

// Now returns the trace clock: monotonic nanoseconds since the
// process trace epoch.
func Now() int64 { return int64(time.Since(epoch)) }
