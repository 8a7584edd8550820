// Command perfbench is the repository benchmark: it takes MiniPy
// programs from source text to a checked result through the public
// entry points of each layer, in one OS process, and prints the
// end-to-end metrics of one workload (or, with --trace 1, the
// per-layer metrics of a traced run) as the last line of its output.
//
//	bash perfbench/run.sh --serve-rate 400 --serve-limit-ms 25 \
//	    --workload compiled-kernels --seed 1 --seconds 20 --trace 0
//
// See README.md in this directory for the workloads and the metric map.
package main

import (
	"encoding/json"
	"errors"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// processStart approximates the process start: set-up time is counted
// from here for the first set-up.
var processStart = time.Now()

// setupRounds is how often a run sets its workload up; setup_s is the
// median, so one slow set-up does not move it.
const setupRounds = 5

// runSlack is how long a run may take beyond --seconds (set-up, the
// last whole round, the pipeline probe) before the whole-run deadline
// ends it without a result.
const runSlack = 100 * time.Second

var errTimeout = errors.New("operation deadline exceeded")

// within runs f and waits at most d for it. On timeout f keeps running
// in its goroutine: no layer under test can be stopped from outside,
// so the caller stops measuring and the process exit reclaims it.
func within(d time.Duration, f func() error) error {
	done := make(chan error, 1)
	go func() { done <- f() }()
	t := time.NewTimer(d)
	defer t.Stop()
	select {
	case err := <-done:
		return err
	case <-t.C:
		return errTimeout
	}
}

// phase is what one timed stretch of a workload produced.
type phase struct {
	attempted, failed int
	good              int       // operations counted in throughput
	latMS             []float64 // latency of each correct operation
	lateMS            []float64 // open loop only: how late each send was
	mcells            float64   // mpi-halo only: million cell updates done
	seconds           float64
	errs              []string
	aborted           bool // an operation hit its deadline; measuring stopped
}

// fail counts one failed operation, keeping the first few errors.
func (p *phase) fail(err error) {
	p.failed++
	if len(p.errs) < 5 {
		p.errs = append(p.errs, err.Error())
	}
	if errors.Is(err, errTimeout) {
		p.aborted = true
	}
}

func (p *phase) add(q phase) {
	p.attempted += q.attempted
	p.failed += q.failed
	p.errs = append(p.errs, q.errs...)
	p.aborted = p.aborted || q.aborted
}

type workload interface {
	// measure runs operations until the deadline; tr is nil when the
	// phase is untraced.
	measure(until time.Time, tr *tracer) phase
	// probe times the front-end stages after a traced phase.
	probe(tr *tracer) error
	// layers fills per-layer metrics from the trace; base is the
	// untraced phase of the same run.
	layers(tr *tracer, base phase, m map[string]float64)
	close()
}

type options struct {
	seed         int64
	seconds      int
	serveRate    float64
	serveLimitMS float64
	short        bool
}

// workloadDef names a workload's latency and throughput metrics (as
// the report line prints them) and builds it.
type workloadDef struct {
	p50, tail, rate, rateUnit string
	tailQ                     float64
	setup                     func(o options) (workload, error)
}

var workloads = map[string]workloadDef{
	"compiled-kernels": {"program_ms_p50", "program_ms_p90", "programs_per_s", "1/s", 0.9,
		func(o options) (workload, error) { return newProgramWorkload(compiledKernels, o.seed, o.short) }},
	"tasks-bridge": {"program_ms_p50", "program_ms_p90", "programs_per_s", "1/s", 0.9,
		func(o options) (workload, error) { return newProgramWorkload(tasksBridge, o.seed, o.short) }},
	"serve-mix": {"req_ms_p50", "req_ms_p99", "goodput_rps", "req/s", 0.99,
		func(o options) (workload, error) {
			return newServeWorkload(o.seed, o.seconds, o.serveRate, o.serveLimitMS, o.short)
		}},
	"mpi-halo": {"sweep_ms_p50", "sweep_ms_p90", "halo_runs_per_s", "1/s", 0.9,
		func(o options) (workload, error) { return newHaloWorkload(o.seed, o.short) }},
}

// metricDef is one metric as BENCHMARK.json declares it.
type metricDef struct{ name, unit, better string }

// endToEnd are printed by an untraced run, the same names on every
// workload; README.md maps each to the workload's own metric.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower"},
	{"latency_ms_p50", "ms", "lower"},
	{"latency_ms_tail", "ms", "lower"},
	{"throughput_per_s", "1/s", "higher"},
	{"peak_rss_mb", "MB", "lower"},
}

// perLayer are printed by a traced run. A metric of a layer the
// workload does not run reads 0.
var perLayer = []metricDef{
	{"minipy.parse_ms", "ms", "lower"},
	{"transform.module_ms", "ms", "lower"},
	{"compile.install_ms", "ms", "lower"},
	{"interp.call_s", "s", "lower"},
	{"interp.pipeline_s", "s", "lower"},
	{"interp.steps_per_req", "count", "lower"},
	{"interp.allocs_per_req", "count", "lower"},
	{"compile.dt_over_native", "ratio", "lower"},
	{"pyomp.native_ms", "ms", "lower"},
	{"rt.regions", "count", "lower"},
	{"rt.barriers", "count", "lower"},
	{"rt.barrier_wait_s", "s", "lower"},
	{"rt.loop_chunks", "count", "lower"},
	{"rt.kernel_loops", "count", "higher"},
	{"rt.load_imbalance", "ratio", "lower"},
	{"rt.tasks_created", "count", "lower"},
	{"rt.tasks_stolen", "count", "lower"},
	{"rt.tasks_depend_stalled", "count", "lower"},
	{"rt.critical_wait_s", "s", "lower"},
	{"prof.compute_s", "s", "lower"},
	{"prof.kernel_s", "s", "lower"},
	{"prof.barrier_wait_s", "s", "lower"},
	{"prof.taskwait_s", "s", "lower"},
	{"prof.steal_idle_s", "s", "lower"},
	{"prof.depend_stall_s", "s", "lower"},
	{"serve.run_ms_p50", "ms", "lower"},
	{"serve.overhead_ms_p50", "ms", "lower"},
	{"serve.shed_total", "count", "lower"},
	{"mpi.msgs_per_sweep", "count", "lower"},
	{"mpi.bytes_per_sweep", "B", "lower"},
	{"mpi.coalesced_ratio", "ratio", "higher"},
	{"mpi.send_wait_s", "s", "lower"},
	{"mpi.recv_wait_s", "s", "lower"},
	{"bench.gen_late_ms_p99", "ms", "lower"},
	{"bench.trace_overhead_ratio", "ratio", "lower"},
	{"bench.fail_ratio", "ratio", "lower"},
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

func main() {
	os.Exit(run(os.Args[1:], os.Stdout, os.Stderr))
}

func run(args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	name := fs.String("workload", "", "workload to run")
	var o options
	fs.Int64Var(&o.seed, "seed", 0, "seed the inputs are drawn from")
	fs.IntVar(&o.seconds, "seconds", 0, "how long to measure")
	traced := fs.Int("trace", 0, "1 for the traced run that prints per-layer metrics")
	fs.Float64Var(&o.serveRate, "serve-rate", 0, "serve-mix offered rate, requests/s")
	fs.Float64Var(&o.serveLimitMS, "serve-limit-ms", 0, "serve-mix latency limit for goodput, ms")
	fs.BoolVar(&o.short, "short", false, "tiny problem sizes (self-test)")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	def, ok := workloads[*name]
	switch {
	case !ok:
		fmt.Fprintf(stderr, "perfbench: unknown --workload %q\n", *name)
		return 2
	case o.seconds < 1:
		fmt.Fprintln(stderr, "perfbench: --seconds must be at least 1")
		return 2
	case *traced != 0 && *traced != 1:
		fmt.Fprintln(stderr, "perfbench: --trace must be 0 or 1")
		return 2
	case o.serveRate <= 0 || o.serveLimitMS <= 0:
		fmt.Fprintln(stderr, "perfbench: --serve-rate and --serve-limit-ms must be positive")
		return 2
	}

	// The whole-run deadline: a run that hangs past it exits without a
	// result rather than outliving its caller's patience.
	deadline := time.AfterFunc(time.Duration(o.seconds)*time.Second+runSlack, func() {
		fmt.Fprintln(stderr, "perfbench: whole-run deadline exceeded")
		os.Exit(3)
	})
	defer deadline.Stop()

	st := hostStamp(*name, o.seed)
	if diff := st.hostDiffers(); len(diff) > 0 {
		fmt.Fprintf(stderr, "perfbench: warning: host differs from the one the bounds were set on: %v\n", diff)
	}
	stampJSON, _ := json.Marshal(map[string]stamp{"stamp": st}) // strings and ints only: cannot fail
	fmt.Fprintln(stdout, string(stampJSON))

	var w workload
	var setups []float64
	for i := 0; i < setupRounds; i++ {
		t0 := time.Now()
		if i == 0 {
			t0 = processStart
		}
		next, err := def.setup(o)
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: set-up: %v\n", err)
			if w != nil {
				w.close()
			}
			return 1
		}
		setups = append(setups, time.Since(t0).Seconds())
		if w != nil {
			w.close()
		}
		w = next
	}
	// The self-test reads this line to check nothing listens there after
	// the run.
	if sw, ok := w.(*serveWorkload); ok {
		fmt.Fprintf(stderr, "perfbench: serve listening on %s\n", sw.srv.Addr())
	}

	res := result{Metrics: map[string]metricValue{}}
	var total phase
	measureFor := func(d time.Duration, tr *tracer) phase {
		p := w.measure(time.Now().Add(d), tr)
		total.add(p)
		return p
	}
	report := map[string]metricValue{}
	if *traced == 0 {
		steal0, total0, stealErr := cpuTicks()
		p := measureFor(time.Duration(o.seconds)*time.Second, nil)
		if steal1, total1, err := cpuTicks(); err == nil && stealErr == nil {
			report["host_steal_ratio"] = metricValue{ratio(steal1-steal0, total1-total0), "ratio"}
		}
		w.close()
		rss, err := peakRSSMB()
		if err != nil {
			fmt.Fprintf(stderr, "perfbench: %v\n", err)
			return 1
		}
		e2e := map[string]float64{
			"setup_s":          median(setups),
			"latency_ms_p50":   median(p.latMS),
			"latency_ms_tail":  quantile(p.latMS, def.tailQ),
			"throughput_per_s": float64(p.good) / p.seconds,
			"peak_rss_mb":      rss,
		}
		for _, m := range endToEnd {
			res.Metrics[m.name] = metricValue{e2e[m.name], m.unit}
		}
		report["setup_s"] = res.Metrics["setup_s"]
		report["peak_rss_mb"] = res.Metrics["peak_rss_mb"]
		report[def.p50] = res.Metrics["latency_ms_p50"]
		report[def.tail] = res.Metrics["latency_ms_tail"]
		report[def.rate] = metricValue{e2e["throughput_per_s"], def.rateUnit}
		if p.mcells > 0 {
			report["mcells_per_s"] = metricValue{p.mcells / p.seconds, "Mcells/s"}
		}
		report["samples"] = metricValue{float64(len(p.latMS)), "count"}
		if float64(len(p.latMS))*(1-def.tailQ) < 10 {
			fmt.Fprintf(stderr, "perfbench: warning: %d samples leave fewer than 10 beyond %s\n", len(p.latMS), def.tail)
		}
	} else {
		// The traced run measures the same workload untraced and then
		// traced, half the time each; their latency medians give the
		// tracing overhead.
		half := time.Duration(o.seconds) * time.Second / 2
		base := measureFor(half, nil)
		tr := newTracer()
		tp := measureFor(half, tr)
		if !total.aborted {
			if err := w.probe(tr); err != nil {
				total.attempted++
				total.fail(fmt.Errorf("pipeline probe: %w", err))
			}
		}
		w.close()
		layers := map[string]float64{}
		for _, m := range perLayer {
			layers[m.name] = 0
		}
		w.layers(tr, base, layers)
		layers["bench.trace_overhead_ratio"] = ratio(median(tp.latMS), median(base.latMS))
		layers["bench.fail_ratio"] = ratio(float64(total.failed), float64(total.attempted))
		for _, m := range perLayer {
			res.Metrics[m.name] = metricValue{layers[m.name], m.unit}
		}
		path := filepath.Join(".bench_build", "perfbench", "traces", fmt.Sprintf("%s-seed%d.json", *name, o.seed))
		if err := tr.write(path); err != nil {
			fmt.Fprintf(stderr, "perfbench: write trace: %v\n", err)
			return 1
		}
		fmt.Fprintf(stderr, "perfbench: trace written to %s\n", path)
	}

	res.Attempted, res.Failed = total.attempted, total.failed
	res.Correct = total.failed == 0 && total.attempted > 0
	report["fail_ratio"] = metricValue{ratio(float64(total.failed), float64(total.attempted)), "ratio"}
	for _, e := range total.errs {
		fmt.Fprintf(stderr, "perfbench: failed: %s\n", e)
	}
	printReport(stdout, *name, report)
	out, err := json.Marshal(res)
	if err != nil {
		fmt.Fprintf(stderr, "perfbench: %v\n", err)
		return 1
	}
	fmt.Fprintln(stdout, string(out))
	return 0
}

// printReport prints one line per metric under the workload's own
// metric names, for a human reader; the last line stays the result.
func printReport(w io.Writer, name string, report map[string]metricValue) {
	keys := make([]string, 0, len(report))
	for k := range report {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		fmt.Fprintf(w, "# %s %s %.6g %s\n", name, k, report[k].Value, report[k].Unit)
	}
}
