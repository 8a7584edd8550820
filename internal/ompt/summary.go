package ompt

import (
	"fmt"
	"io"
	"time"
)

// WriteSummary exports the tracer's events as the plain-text
// aggregate report. Like WriteChromeTrace it is complete only after
// the traced regions have joined.
func (t *Tracer) WriteSummary(w io.Writer) error {
	return t.Stats().Write(w)
}

func ns(v int64) string {
	return time.Duration(v).Round(time.Microsecond).String()
}

// Write renders the aggregate statistics as an aligned text table:
// the plain-text exporter of the tracing subsystem.
func (s *Stats) Write(w io.Writer) error {
	if _, err := fmt.Fprintf(w, "== omp4go trace summary ==\n"); err != nil {
		return err
	}
	fmt.Fprintf(w, "records %d (%d dropped), span %s\n", s.Records, s.Dropped, ns(s.SpanNS))
	fmt.Fprintf(w, "parallel regions %d, tasks created %d, max task-queue depth %d\n",
		s.Regions, s.TasksCreated, s.MaxQueueDepth)
	if s.TasksStolen > 0 || s.TaskOverflows > 0 {
		fmt.Fprintf(w, "tasks stolen %d, deque overflows %d\n",
			s.TasksStolen, s.TaskOverflows)
	}
	if s.TaskDependsResolved > 0 || s.Taskgroups > 0 {
		fmt.Fprintf(w, "task dependences resolved %d, taskgroups %d\n",
			s.TaskDependsResolved, s.Taskgroups)
	}
	if s.KernelLoops > 0 {
		fmt.Fprintf(w, "compiled kernel loops %d (member shares on the static fast path)\n",
			s.KernelLoops)
	}
	fmt.Fprintf(w, "total barrier wait %s, total critical wait %s\n",
		ns(s.TotalBarrierWaitNS), ns(s.TotalCriticalWaitNS))
	if s.LoadImbalance > 0 {
		fmt.Fprintf(w, "load-imbalance factor %.3f (max/mean thread work time)\n", s.LoadImbalance)
	}
	if len(s.Threads) == 0 {
		return nil
	}
	fmt.Fprintf(w, "%-7s %7s %7s %10s %12s %12s %12s %6s %6s\n",
		"thread", "events", "chunks", "iters", "work", "barrier", "crit-wait", "tasks", "stolen")
	for _, t := range s.Threads {
		if _, err := fmt.Fprintf(w, "%-7d %7d %7d %10d %12s %12s %12s %6d %6d\n",
			t.GTID, t.Events, t.Chunks, t.Iterations,
			ns(t.WorkNS), ns(t.BarrierWaitNS), ns(t.CriticalWaitNS), t.TasksRun, t.TasksStolen); err != nil {
			return err
		}
	}
	return nil
}
