package main

import (
	"fmt"
	"io"
	"math"
	"math/rand"
	"runtime"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/compile"
	"github.com/omp4go/omp4go/internal/interp"
	"github.com/omp4go/omp4go/internal/minipy"
	"github.com/omp4go/omp4go/internal/rt"
	"github.com/omp4go/omp4go/internal/transform"
)

// entry is one program shape of a workload's catalogue: a paper
// kernel in one mode at one thread count and problem size. args and
// short omit the trailing data seed, which set-up draws from --seed.
type entry struct {
	name    string
	mode    bench.Mode
	threads int
	args    []int64
	short   []int64
}

// The compiled-kernels catalogue: static-schedule numerical kernels,
// mostly CompiledDT, so compiled loop kernels do almost all the work.
// Sizes put each program at roughly 50-300 ms on a 2-CPU host. The
// entry count is odd so the median falls inside one entry's samples
// rather than in the gap between two.
var compiledKernels = []entry{
	{"pi", bench.CompiledDT, 1, []int64{2_000_000}, []int64{20_000}},
	{"pi", bench.CompiledDT, 2, []int64{2_000_000}, []int64{20_000}},
	{"jacobi", bench.CompiledDT, 1, []int64{256, 20}, []int64{24, 2}},
	{"jacobi", bench.CompiledDT, 2, []int64{256, 20}, []int64{24, 2}},
	{"md", bench.CompiledDT, 1, []int64{192, 8}, []int64{16, 1}},
	{"md", bench.CompiledDT, 2, []int64{192, 8}, []int64{16, 1}},
	{"lu", bench.CompiledDT, 1, []int64{112}, []int64{12}},
	{"lu", bench.CompiledDT, 2, []int64{112}, []int64{12}},
	{"fft", bench.CompiledDT, 1, []int64{16384}, []int64{64}},
	{"fft", bench.CompiledDT, 2, []int64{16384}, []int64{64}},
	{"pi", bench.Compiled, 1, []int64{400_000}, []int64{4_000}},
	{"jacobi", bench.Compiled, 2, []int64{192, 15}, []int64{24, 2}},
	{"md", bench.Compiled, 2, []int64{128, 6}, []int64{16, 1}},
}

// The tasks-bridge catalogue: task-heavy and bridge-heavy programs at
// 2 threads, where the tree-walking interpreter, the per-chunk
// __omp.for_next bridge, task submit/steal and the dependence tracker
// do the work and compiled kernels do none.
var tasksBridge = []entry{
	{"qsort", bench.Hybrid, 2, []int64{12_000}, []int64{200}},
	{"qsort", bench.Compiled, 2, []int64{25_000}, []int64{200}},
	{"qsort", bench.CompiledDT, 2, []int64{25_000}, []int64{200}},
	{"wavefront", bench.Hybrid, 2, []int64{80}, []int64{6}},
	{"wavefront", bench.CompiledDT, 2, []int64{80}, []int64{6}},
	{"fft", bench.Hybrid, 2, []int64{2048}, []int64{64}},
	{"bfs", bench.Hybrid, 2, []int64{80}, []int64{8}},
	{"wordcount", bench.Hybrid, 2, []int64{6000}, []int64{40}},
	{"graphic", bench.Hybrid, 2, []int64{4000, 16}, []int64{40, 4}},
}

// opTimeout bounds one program. bench.Run cannot be canceled, so a
// program past it is counted failed and the measurement stops.
const opTimeout = 30 * time.Second

// dataVariants is how many data seeds each seeded catalogue entry
// draws. Operations pick among them at random, so a run's figures do
// not hang on one data set (qsort's recursion, for one, follows its
// data).
const dataVariants = 8

// program is a catalogue entry with its input variants drawn.
type program struct {
	entry
	key    string
	inputs []input
	tol    float64
}

// input is one argument list with its native reference checksum.
type input struct {
	args []int64
	want float64
}

type programWorkload struct {
	progs []program
	rng   *rand.Rand
}

func newProgramWorkload(catalogue []entry, seed int64, short bool) (*programWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	w := &programWorkload{rng: rng}
	for _, e := range catalogue {
		b, ok := bench.Registry[e.name]
		if !ok {
			return nil, fmt.Errorf("unknown benchmark %q", e.name)
		}
		sizes := e.args
		if short {
			sizes = e.short
		}
		p := program{entry: e, key: fmt.Sprintf("%s/%s/%dT", e.name, e.mode, e.threads), tol: b.Tolerance}
		seeded := len(b.ArgNames) == len(sizes)+1 && b.ArgNames[len(sizes)] == "seed"
		for v := 0; v < dataVariants && (seeded || v == 0); v++ {
			args := append([]int64(nil), sizes...)
			if seeded {
				args = append(args, 1+rng.Int63n(1<<20))
			}
			p.inputs = append(p.inputs, input{args: args, want: b.Reference(args)})
		}
		w.progs = append(w.progs, p)
	}
	// Warm-up: one small program per mode the catalogue uses, so the
	// first timed program does not pay for first-use initialisation.
	seen := map[bench.Mode]bool{}
	for _, p := range w.progs {
		if seen[p.mode] {
			continue
		}
		seen[p.mode] = true
		if _, err := bench.Validate(p.mode, "pi", bench.RunConfig{Threads: 2, Args: []int64{10_000}}); err != nil {
			return nil, fmt.Errorf("warm-up %s: %w", p.mode, err)
		}
	}
	return w, nil
}

func (w *programWorkload) close() {}

// measure runs the catalogue in seeded random order, one program at a
// time (a closed loop with one client), in whole rounds until the
// deadline has passed, so every run sees the same program mix.
func (w *programWorkload) measure(until time.Time, tr *tracer) phase {
	var p phase
	start := time.Now()
	for time.Now().Before(until) {
		for _, i := range w.rng.Perm(len(w.progs)) {
			// Each program starts from a collected heap, as it would in
			// a fresh process, so neither its time nor the peak memory
			// depends on when the previous program's garbage is swept.
			runtime.GC()
			ms, err := w.runOne(&w.progs[i], tr)
			p.attempted++
			if err != nil {
				p.fail(err)
				if p.aborted {
					p.seconds = time.Since(start).Seconds()
					return p
				}
				continue
			}
			p.good++
			p.latMS = append(p.latMS, ms)
		}
	}
	p.seconds = time.Since(start).Seconds()
	return p
}

// runOne takes one program from source text to a checked result:
// bench.Run parses, transforms, compiles and runs it, and the
// checksum is compared with the native reference drawn at set-up.
func (w *programWorkload) runOne(p *program, tr *tracer) (float64, error) {
	in := p.inputs[w.rng.Intn(len(p.inputs))]
	cfg := bench.RunConfig{Threads: p.threads, Args: in.args, CollectMetrics: tr != nil}
	sp := tr.begin("bench.Run", nil, map[string]string{"program": p.key})
	start := time.Now()
	var res bench.Result
	err := within(opTimeout, func() error {
		var err error
		res, err = bench.Run(p.mode, p.name, cfg)
		return err
	})
	ms := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return 0, err
	}
	if !checksumOK(res.Checksum, in.want, p.tol) {
		return 0, fmt.Errorf("%s%v: checksum %v, reference %v", p.key, in.args, res.Checksum, in.want)
	}
	if tr != nil {
		attrs := map[string]float64{"call_s": res.Seconds}
		if st := res.Metrics; st != nil {
			var barriers, chunks int
			for _, t := range st.Threads {
				barriers += t.Barriers
				chunks += t.Chunks
			}
			attrs["regions"] = float64(st.Regions)
			attrs["barriers"] = float64(barriers)
			attrs["barrier_wait_s"] = float64(st.TotalBarrierWaitNS) / 1e9
			attrs["loop_chunks"] = float64(chunks)
			attrs["kernel_loops"] = float64(st.KernelLoops)
			attrs["load_imbalance"] = st.LoadImbalance
			attrs["tasks_created"] = float64(st.TasksCreated)
			attrs["tasks_stolen"] = float64(st.TasksStolen)
			attrs["tasks_depend_stalled"] = float64(st.TaskDependsResolved)
			attrs["critical_wait_s"] = float64(st.TotalCriticalWaitNS) / 1e9
		}
		tr.end(sp, attrs)
	}
	return ms, nil
}

// checksumOK is bench.Validate's acceptance rule.
func checksumOK(got, want, tol float64) bool {
	if got == want {
		return true
	}
	return tol > 0 && math.Abs(got-want) <= tol*(1+math.Abs(want))
}

// probeReps is how often the pipeline probe repeats each stage; the
// median of the repeats is reported.
const probeReps = 5

// probe times the front-end layers on each catalogue program after
// the traced phase, off the clock: bench.Run does not expose its
// stages, so they are called again through their public entry points.
// CompiledDT programs at one thread are also run on the native PyOMP
// baseline for the compiled-versus-native ratio.
func (w *programWorkload) probe(tr *tracer) error {
	for _, p := range w.progs {
		src := bench.Registry[p.name].Source
		for r := 0; r < probeReps; r++ {
			if err := probePipeline(tr, src, p.name+".py", p.mode, p.key); err != nil {
				return err
			}
		}
		if p.mode == bench.CompiledDT && p.threads == 1 {
			sp := tr.begin("pyomp.Run", nil, map[string]string{"program": p.key})
			res, err := bench.Run(bench.PyOMP, p.name, bench.RunConfig{Threads: 1, Args: p.inputs[0].args})
			if err != nil {
				return fmt.Errorf("native %s: %w", p.key, err)
			}
			tr.end(sp, map[string]float64{"native_s": res.Seconds})
		}
	}
	return nil
}

// probePipeline parses, transforms and (in the compiled modes)
// compiles one source, one span per stage.
func probePipeline(tr *tracer, src, file string, mode bench.Mode, key string) error {
	tags := map[string]string{"program": key}
	root := tr.begin("pipeline", nil, tags)
	sp := tr.begin("minipy.Parse", root, tags)
	mod, err := minipy.Parse(src, file)
	if err != nil {
		return fmt.Errorf("parse %s: %w", key, err)
	}
	tr.end(sp, nil)
	sp = tr.begin("transform.Module", root, tags)
	if _, err := transform.Module(mod); err != nil {
		return fmt.Errorf("transform %s: %w", key, err)
	}
	tr.end(sp, nil)
	if mode == bench.Compiled || mode == bench.CompiledDT {
		in := interp.New(interp.Options{Layer: rt.LayerAtomic, Stdout: io.Discard, Getenv: func(string) string { return "" }})
		sp = tr.begin("compile.Install", root, tags)
		if err := compile.Install(in, mod, compile.Options{Typed: mode == bench.CompiledDT}); err != nil {
			return fmt.Errorf("compile %s: %w", key, err)
		}
		tr.end(sp, nil)
	}
	tr.end(root, nil)
	return nil
}

// layers derives the per-layer metrics of a traced phase.
func (w *programWorkload) layers(tr *tracer, _ phase, m map[string]float64) {
	pipelineLayers(tr, m)
	runs := tr.byName("bench.Run")
	var pipeline []float64
	for _, s := range runs {
		pipeline = append(pipeline, s.seconds()-s.Attrs["call_s"])
	}
	m["interp.call_s"] = median(tr.attr("bench.Run", "call_s"))
	m["interp.pipeline_s"] = median(pipeline)
	for _, k := range []string{"regions", "barriers", "barrier_wait_s", "loop_chunks", "kernel_loops",
		"tasks_created", "tasks_stolen", "tasks_depend_stalled", "critical_wait_s"} {
		m["rt."+k] = mean(tr.attr("bench.Run", k))
	}
	// Programs whose loops all ran in kernels trace no per-chunk work,
	// so their imbalance reads 0; the median is over the others.
	var imbalance []float64
	for _, v := range tr.attr("bench.Run", "load_imbalance") {
		if v > 0 {
			imbalance = append(imbalance, v)
		}
	}
	m["rt.load_imbalance"] = median(imbalance)

	// Compiled-versus-native: each CompiledDT 1-thread program's
	// median call time over its native baseline time.
	var ratios, native []float64
	for _, s := range tr.byName("pyomp.Run") {
		key := s.Tags["program"]
		var calls []float64
		for _, r := range runs {
			if r.Tags["program"] == key {
				calls = append(calls, r.Attrs["call_s"])
			}
		}
		if len(calls) > 0 && s.Attrs["native_s"] > 0 {
			ratios = append(ratios, median(calls)/s.Attrs["native_s"])
		}
		native = append(native, s.Attrs["native_s"]*1e3)
	}
	m["compile.dt_over_native"] = median(ratios)
	m["pyomp.native_ms"] = median(native)
}

// pipelineLayers fills the front-end stage medians from probe spans.
func pipelineLayers(tr *tracer, m map[string]float64) {
	m["minipy.parse_ms"] = median(tr.seconds("minipy.Parse")) * 1e3
	m["transform.module_ms"] = median(tr.seconds("transform.Module")) * 1e3
	m["compile.install_ms"] = median(tr.seconds("compile.Install")) * 1e3
}
