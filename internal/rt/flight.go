package rt

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"sync/atomic"
	"time"

	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/ompt"
	"github.com/omp4go/omp4go/internal/prof"
)

// This file implements the always-on flight recorder: a bounded ring
// of recent runtime events plus periodic introspection snapshots,
// flushed to a timestamped post-mortem dump when something goes wrong
// — a watchdog stall report, a serve-layer budget kill, or an explicit
// FlightDump call. The recorder is an ompt.Tool built on an
// ompt.Tracer, so it rides the same hook sites as tracing, and the
// Tracer's rings snapshot safely while the producers are still running
// (which is the whole point: the program is wedged or being killed,
// not joined).

const (
	// defaultFlightRingSize bounds the per-thread event ring. Smaller
	// than the Tracer default: the recorder keeps "what just happened",
	// not a full program trace.
	defaultFlightRingSize = 1 << 12
	// flightSampleInterval is the cadence of periodic introspection
	// snapshots; maxFlightSnaps bounds how many are retained.
	flightSampleInterval = 250 * time.Millisecond
	maxFlightSnaps       = 64
	// maxFlightDumps caps dump files written over the recorder's
	// lifetime so a stall storm cannot fill the disk.
	maxFlightDumps = 32
)

// defaultFlightDir is where OMP4GO_FLIGHT=on (without a path) puts
// dumps.
func defaultFlightDir() string {
	return filepath.Join(os.TempDir(), "omp4go-flight")
}

// FlightSnap is one periodic introspection sample retained by the
// recorder: the in-flight regions as the sampler saw them.
type FlightSnap struct {
	TimeNS  int64        `json:"time_ns"`
	Regions []RegionInfo `json:"regions"`
}

// FlightRecorder is the always-on crash/stall recorder. Its embedded
// Tracer, sized defaultFlightRingSize per thread, makes it an
// ompt.Tool; it is attached alongside any user tool via ompt.Multi.
type FlightRecorder struct {
	*ompt.Tracer
	rt  *Runtime
	dir string

	snapMu sync.Mutex
	snaps  []FlightSnap // oldest first, bounded by maxFlightSnaps

	dumps atomic.Int64 // dump files written (for the cap)
	seq   atomic.Int64 // dump filename uniquifier

	stopOnce sync.Once
	stop     chan struct{}
	done     chan struct{}
}

// Dir returns the directory dumps are written to.
func (fr *FlightRecorder) Dir() string { return fr.dir }

// sample appends one periodic introspection snapshot.
func (fr *FlightRecorder) sample() {
	regions := fr.rt.InflightRegions()
	if regions == nil {
		regions = []RegionInfo{}
	}
	fr.snapMu.Lock()
	fr.snaps = append(fr.snaps, FlightSnap{TimeNS: ompt.Now(), Regions: regions})
	if len(fr.snaps) > maxFlightSnaps {
		fr.snaps = fr.snaps[len(fr.snaps)-maxFlightSnaps:]
	}
	fr.snapMu.Unlock()
}

func (fr *FlightRecorder) recentSnaps() []FlightSnap {
	fr.snapMu.Lock()
	out := make([]FlightSnap, len(fr.snaps))
	copy(out, fr.snaps)
	fr.snapMu.Unlock()
	return out
}

func (fr *FlightRecorder) runSampler() {
	defer close(fr.done)
	tick := time.NewTicker(flightSampleInterval)
	defer tick.Stop()
	for {
		select {
		case <-fr.stop:
			return
		case <-tick.C:
			fr.sample()
		}
	}
}

func (fr *FlightRecorder) stopSampler() {
	fr.stopOnce.Do(func() {
		close(fr.stop)
		<-fr.done
	})
}

// FlightDump is the loadable JSON document a dump file contains.
type FlightDump struct {
	Reason string `json:"reason"`
	// WallTime is the dump's wall-clock moment; TimeNS the monotonic
	// timestamp matching the event stream and snapshot clocks.
	WallTime string         `json:"wall_time"`
	TimeNS   int64          `json:"time_ns"`
	Debug    DebugSnapshot  `json:"debug"`
	Profile  *prof.Snapshot `json:"profile,omitempty"`
	Snaps    []FlightSnap   `json:"snapshots,omitempty"`
	Dropped  uint64         `json:"dropped_events,omitempty"`
}

// Dump writes a post-mortem capture to the recorder's directory: a
// <stem>.json document (reason, debug snapshot, profile breakdown,
// recent introspection samples) and a <stem>.trace.json Chrome trace
// of the retained event ring. It returns the path of the JSON
// document. Dumps beyond maxFlightDumps are dropped with an error so
// a stall storm cannot fill the disk.
func (fr *FlightRecorder) Dump(reason string) (string, error) {
	if fr.dumps.Add(1) > maxFlightDumps {
		fr.dumps.Add(-1)
		return "", fmt.Errorf("flight: dump cap (%d) reached, %q dump dropped", maxFlightDumps, reason)
	}
	fr.sample() // one final snapshot so the dump carries the terminal state
	stem := fmt.Sprintf("omp4go-flight-%s-%03d-%s",
		time.Now().Format("20060102-150405"), fr.seq.Add(1), sanitizeReason(reason))
	doc := FlightDump{
		Reason:   reason,
		WallTime: time.Now().Format(time.RFC3339Nano),
		TimeNS:   ompt.Now(),
		Debug:    fr.rt.DebugSnapshot(),
		Snaps:    fr.recentSnaps(),
	}
	if p := fr.rt.prof.Load(); p != nil {
		s := p.Snapshot()
		doc.Profile = &s
	}
	doc.Dropped = fr.Dropped()

	path := filepath.Join(fr.dir, stem+".json")
	f, err := os.Create(path)
	if err != nil {
		return "", err
	}
	enc := json.NewEncoder(f)
	enc.SetIndent("", "  ")
	werr := enc.Encode(&doc)
	if cerr := f.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}

	tf, err := os.Create(filepath.Join(fr.dir, stem+".trace.json"))
	if err != nil {
		return "", err
	}
	werr = fr.WriteChromeTrace(tf)
	if cerr := tf.Close(); werr == nil {
		werr = cerr
	}
	if werr != nil {
		return "", werr
	}
	fr.rt.metrics.Inc(0, metrics.FlightDumps)
	return path, nil
}

// sanitizeReason makes a dump-trigger reason filename-safe.
func sanitizeReason(reason string) string {
	if reason == "" {
		return "manual"
	}
	out := make([]byte, 0, len(reason))
	for i := 0; i < len(reason); i++ {
		c := reason[i]
		switch {
		case c >= 'a' && c <= 'z', c >= 'A' && c <= 'Z', c >= '0' && c <= '9',
			c == '-', c == '_':
			out = append(out, c)
		default:
			out = append(out, '_')
		}
	}
	return string(out)
}

// EnableFlight activates the flight recorder, writing dumps into dir
// ("" selects the default under the OS temp directory). Idempotent:
// a second call returns the existing recorder. The recorder attaches
// itself as an event tool alongside any already-attached tool and
// enables introspection so its periodic snapshots see regions.
func (r *Runtime) EnableFlight(dir string) (*FlightRecorder, error) {
	if fr := r.flight.Load(); fr != nil {
		return fr, nil
	}
	if dir == "" {
		dir = defaultFlightDir()
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	fr := &FlightRecorder{
		Tracer: ompt.NewTracer(defaultFlightRingSize), rt: r, dir: dir,
		stop: make(chan struct{}), done: make(chan struct{}),
	}
	if !r.flight.CompareAndSwap(nil, fr) {
		close(fr.done) // lost the race; no sampler was started
		return r.flight.Load(), nil
	}
	r.ensureObs()
	r.SetTool(ompt.Multi(r.loadTool(), fr))
	go fr.runSampler()
	return fr, nil
}

// Flight returns the active flight recorder, or nil when disabled.
func (r *Runtime) Flight() *FlightRecorder { return r.flight.Load() }

// FlightDump triggers an on-demand dump; it reports an error when the
// recorder is disabled.
func (r *Runtime) FlightDump(reason string) (string, error) {
	fr := r.flight.Load()
	if fr == nil {
		return "", fmt.Errorf("flight recorder not enabled (set OMP4GO_FLIGHT or call EnableFlight)")
	}
	return fr.Dump(reason)
}
