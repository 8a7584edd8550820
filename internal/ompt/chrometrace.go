package ompt

import (
	"encoding/json"
	"fmt"
	"io"
)

// traceEvent is one entry of the Chrome trace_event format
// (chrome://tracing, Perfetto). Timestamps and durations are in
// microseconds.
type traceEvent struct {
	Name string  `json:"name"`
	Cat  string  `json:"cat,omitempty"`
	Ph   string  `json:"ph"`
	Ts   float64 `json:"ts"`
	Dur  float64 `json:"dur,omitempty"`
	Pid  int     `json:"pid"`
	Tid  int32   `json:"tid"`
	S    string  `json:"s,omitempty"`
	// ID ties flow-event pairs ("s"/"f") together; Bp: "e" binds the
	// flow arrival to the enclosing slice (Perfetto draws the arrow
	// into the slice instead of the next one).
	ID   string         `json:"id,omitempty"`
	Bp   string         `json:"bp,omitempty"`
	Args map[string]any `json:"args,omitempty"`
}

const tracePid = 1

func us(ns int64) float64 { return float64(ns) / 1e3 }

// WriteChromeTrace exports the tracer's events as Chrome trace_event
// JSON. It is safe while traced regions run, but only a trace taken
// after they joined has every enter paired with its exit.
func (t *Tracer) WriteChromeTrace(w io.Writer) error {
	recs, dropped := t.collect()
	return WriteChromeTrace(w, recs, dropped)
}

// WriteChromeTrace converts a record stream (sorted by time) to the
// Chrome trace_event JSON object format.
func WriteChromeTrace(w io.Writer, recs []Record, dropped uint64) error {
	events := []traceEvent{{
		Name: "process_name", Ph: "M", Pid: tracePid,
		Args: map[string]any{"name": "omp4go"},
	}}
	seenTid := map[int32]bool{}
	// Barrier and critical sections are paired per thread: the enter
	// (acquire) timestamp opens the span that the exit closes.
	barrierEnter := map[int32][]Record{}
	// Pre-pass for dependence flow arrows: the EvTaskEnd slice of each
	// task id, so an EvTaskDependResolved edge (A = released task,
	// B = completed predecessor) can be drawn from the predecessor's
	// slice end to the successor's slice start — the resolved event
	// precedes the successor's execution in the stream, so the slices
	// are only known after a full pass.
	taskEnd := map[int64]Record{}
	for _, r := range recs {
		if r.Kind == EvTaskEnd {
			taskEnd[r.A] = r
		}
	}

	for _, r := range recs {
		if !seenTid[r.GTID] {
			seenTid[r.GTID] = true
			events = append(events, traceEvent{
				Name: "thread_name", Ph: "M", Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"name": fmt.Sprintf("omp thread %d", r.GTID)},
			})
		}
		switch r.Kind {
		case EvParallelBegin:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("parallel #%d", r.A), Cat: "parallel", Ph: "B",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"region": r.A, "team_size": r.B},
			})
		case EvParallelEnd:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("parallel #%d", r.A), Cat: "parallel", Ph: "E",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
			})
		case EvImplicitTaskBegin:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("region #%d worker %d", r.A, r.B), Cat: "parallel", Ph: "B",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"region": r.A, "thread_num": r.B},
			})
		case EvImplicitTaskEnd:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("region #%d worker %d", r.A, r.B), Cat: "parallel", Ph: "E",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
			})
		case EvBarrierEnter:
			barrierEnter[r.GTID] = append(barrierEnter[r.GTID], r)
		case EvBarrierExit:
			ts := us(r.Time) // fallback when the enter was dropped
			dur := 0.0
			if st := barrierEnter[r.GTID]; len(st) > 0 {
				enter := st[len(st)-1]
				barrierEnter[r.GTID] = st[:len(st)-1]
				ts = us(enter.Time)
				dur = us(r.Time - enter.Time)
			}
			kind := "implicit"
			if r.A == BarrierExplicit {
				kind = "explicit"
			}
			events = append(events, traceEvent{
				Name: "barrier (" + kind + ")", Cat: "barrier", Ph: "X",
				Ts: ts, Dur: dur, Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"wait_us": us(r.Dur), "epoch": r.B},
			})
		case EvLoopBegin:
			events = append(events, traceEvent{
				Name: "for (" + r.Label + ")", Cat: "loop", Ph: "B",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"iterations": r.A, "chunk": r.B, "schedule": r.Label},
			})
		case EvLoopEnd:
			events = append(events, traceEvent{
				Name: "for", Cat: "loop", Ph: "E",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
			})
		case EvLoopChunk:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("chunk [%d,%d)", r.A, r.B), Cat: "chunk", Ph: "X",
				Ts: us(r.Time - r.Dur), Dur: us(r.Dur), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"lb": r.A, "ub": r.B, "iterations": r.B - r.A},
			})
		case EvTaskCreate:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("task #%d create", r.A), Cat: "task", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
				Args: map[string]any{"task": r.A, "queue_depth": r.B},
			})
		case EvTaskEnd:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("task #%d", r.A), Cat: "task", Ph: "X",
				Ts: us(r.Time - r.Dur), Dur: us(r.Dur), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"task": r.A},
			})
		case EvTaskSteal:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("task #%d steal", r.A), Cat: "task", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
				Args: map[string]any{"task": r.A, "victim": r.B},
			})
		case EvTaskOverflow:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("task #%d overflow", r.A), Cat: "task", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
				Args: map[string]any{"task": r.A, "queue_depth": r.B},
			})
		case EvCriticalAcquire:
			if r.Dur > 0 {
				events = append(events, traceEvent{
					Name: "critical wait (" + r.Label + ")", Cat: "critical", Ph: "X",
					Ts: us(r.Time - r.Dur), Dur: us(r.Dur), Pid: tracePid, Tid: r.GTID,
					Args: map[string]any{"name": r.Label},
				})
			}
		case EvCriticalRelease:
			events = append(events, traceEvent{
				Name: "critical (" + r.Label + ")", Cat: "critical", Ph: "X",
				Ts: us(r.Time - r.Dur), Dur: us(r.Dur), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"name": r.Label},
			})
		case EvReduceMerge:
			events = append(events, traceEvent{
				Name: "reduce merge (" + r.Label + ")", Cat: "reduction", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
			})
		case EvTaskDependResolved:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("task #%d depend resolved", r.A), Cat: "task", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
				Args: map[string]any{"task": r.A, "by": r.B},
			})
			// Perfetto flow arrow from the predecessor's slice to the
			// released task's slice, when both ran to completion.
			pred, pok := taskEnd[r.B]
			succ, sok := taskEnd[r.A]
			if pok && sok {
				id := fmt.Sprintf("dep-%d-%d", r.B, r.A)
				events = append(events,
					traceEvent{
						Name: "depend", Cat: "flow", Ph: "s", ID: id,
						Ts: us(pred.Time), Pid: tracePid, Tid: pred.GTID,
					},
					traceEvent{
						Name: "depend", Cat: "flow", Ph: "f", Bp: "e", ID: id,
						Ts: us(succ.Time - succ.Dur), Pid: tracePid, Tid: succ.GTID,
					})
			}
		case EvTaskgroupBegin:
			events = append(events, traceEvent{
				Name: fmt.Sprintf("taskgroup #%d", r.A), Cat: "taskgroup", Ph: "B",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
				Args: map[string]any{"taskgroup": r.A},
			})
		case EvKernelEnter:
			events = append(events, traceEvent{
				Name: "kernel (" + r.Label + ")", Cat: "kernel", Ph: "i",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID, S: "t",
				Args: map[string]any{"iterations": r.A, "chunk": r.B, "schedule": r.Label},
			})
		case EvTaskgroupEnd:
			args := map[string]any{"taskgroup": r.A}
			if r.Label != "" {
				args["state"] = r.Label
			}
			events = append(events, traceEvent{
				Name: fmt.Sprintf("taskgroup #%d", r.A), Cat: "taskgroup", Ph: "E",
				Ts: us(r.Time), Pid: tracePid, Tid: r.GTID,
				Args: args,
			})
		}
	}

	out := struct {
		TraceEvents     []traceEvent   `json:"traceEvents"`
		DisplayTimeUnit string         `json:"displayTimeUnit"`
		OtherData       map[string]any `json:"otherData,omitempty"`
	}{
		TraceEvents:     events,
		DisplayTimeUnit: "ms",
	}
	if dropped > 0 {
		out.OtherData = map[string]any{"dropped_events": dropped}
	}
	enc := json.NewEncoder(w)
	return enc.Encode(&out)
}
