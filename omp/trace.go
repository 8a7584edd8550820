package omp

import (
	"io"

	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/rt"
)

// This file exposes the observability subsystem (internal/ompt) on the
// public API. A Tool receives one Record per runtime event — parallel
// region begin/end, barrier enter/exit with wait time, loop chunk
// dispatch, task lifecycle, critical-section contention, reduction
// merges. The bundled Tracer collects records into per-thread ring
// buffers and exports Chrome trace_event JSON (chrome://tracing,
// Perfetto) or a plain-text summary.

// Tool consumes runtime events; see ompt.Tool.
type Tool = ompt.Tool

// TraceRecord is one runtime event; see ompt.Record.
type TraceRecord = ompt.Record

// Tracer is the bundled event collector; see ompt.Tracer.
type Tracer = ompt.Tracer

// TraceStats is the aggregate view of a trace; see ompt.Stats.
type TraceStats = ompt.Stats

// NewTracer returns a collector with the given per-thread ring size
// (0 means the default); attach it with SetTool or WithTool.
func NewTracer(ringSize int) *Tracer { return ompt.NewTracer(ringSize) }

// SetTool attaches t to the default runtime (nil detaches). Attach
// before entering the parallel regions to observe.
func SetTool(t Tool) { defaultRuntime().SetTool(t) }

// EnableTrace attaches a fresh Tracer to the default runtime and
// returns it. Run the regions of interest, then export with the
// tracer's WriteChromeTrace or WriteSummary once the regions have
// completed (a snapshot of regions still in flight is safe but
// partial).
func EnableTrace() *Tracer {
	t := ompt.NewTracer(0)
	defaultRuntime().SetTool(t)
	return t
}

// DisableTrace detaches any tool from the default runtime.
func DisableTrace() { defaultRuntime().SetTool(nil) }

// WriteChromeTrace writes records collected by the default runtime's
// Tracer (installed by EnableTrace) as Chrome trace_event JSON. It
// fails with a MisuseError when no Tracer is attached.
func WriteChromeTrace(w io.Writer) error {
	tr, err := defaultTracer()
	if err != nil {
		return err
	}
	return tr.WriteChromeTrace(w)
}

// WriteTraceSummary writes the plain-text summary of the default
// runtime's Tracer.
func WriteTraceSummary(w io.Writer) error {
	tr, err := defaultTracer()
	if err != nil {
		return err
	}
	return tr.WriteSummary(w)
}

func defaultTracer() (*Tracer, error) {
	r := defaultRuntime()
	if tr, ok := r.Tool().(*Tracer); ok {
		return tr, nil
	}
	if tr := r.EnvTracer(); tr != nil {
		return tr, nil
	}
	return nil, &rt.MisuseError{Msg: "no tracer attached; call EnableTrace first"}
}
