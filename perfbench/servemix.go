package main

import (
	"bufio"
	"bytes"
	"context"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"runtime"
	"strconv"
	"strings"
	"sync"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/serve"
)

// Limits of the serve-mix workload on a 2-CPU host: two run workers
// and two in-flight client connections, two OpenMP threads a run.
const (
	serveWorkers  = 2
	serveInflight = 2
	serveThreads  = 2
	serveTenants  = 4
	// reqTimeout bounds one request on the client; the server's wall
	// quota is the same, but a compiled-mode run does not poll its
	// budget, so only the client deadline is sure to fire.
	reqTimeout = 5 * time.Second
)

var serveModes = []string{"pure", "hybrid", "compiled", "compileddt"}

// request is one generated serve request with its expected stdout,
// computed in Go independently of the program.
type request struct {
	tenant int
	mode   string
	kind   string
	source string
	want   string
}

// genRequest draws one short, self-contained MiniPy program. Every
// template returns an int, so the expected output is exact under any
// reduction order.
func genRequest(rng *rand.Rand, short bool) request {
	scale := int64(1)
	if short {
		scale = 10
	}
	r := request{tenant: rng.Intn(serveTenants), mode: serveModes[rng.Intn(len(serveModes))]}
	switch rng.Intn(4) {
	case 0:
		n, a, b, m := (200+rng.Int63n(1000))/scale, 1+rng.Int63n(50), rng.Int63n(100), 2+rng.Int63n(30)
		want := int64(0)
		for i := int64(0); i < n; i++ {
			want += (i*a + b) % m
		}
		r.kind, r.want = "reduction", fmt.Sprintf("%d\n", want)
		r.source = fmt.Sprintf(`from omp4py import *

@omp
def red(n: int, a: int, b: int, m: int) -> int:
    total: int = 0
    with omp("parallel for reduction(+:total)"):
        for i in range(n):
            total += (i * a + b) %% m
    return total

print(red(%d, %d, %d, %d))
`, n, a, b, m)
	case 1:
		k, c := (20+rng.Int63n(100))/scale, rng.Int63n(1000)
		want := int64(0)
		for t := int64(0); t < k; t++ {
			want += t*t + c
		}
		r.kind, r.want = "tasks", fmt.Sprintf("%d\n", want)
		r.source = fmt.Sprintf(`from omp4py import *

@omp
def spawn(k: int, c: int) -> int:
    out = [0] * k
    with omp("parallel"):
        with omp("single"):
            for t in range(k):
                with omp("task firstprivate(t)"):
                    out[t] = t * t + c
    s: int = 0
    for t in range(k):
        s += out[t]
    return s

print(spawn(%d, %d))
`, k, c)
	case 2:
		n, m := (200+rng.Int63n(1000))/scale, 2+rng.Int63n(10)
		r.kind, r.want = "critical", fmt.Sprintf("%d\n", (n+m-1)/m)
		r.source = fmt.Sprintf(`from omp4py import *

@omp
def hits(n: int, m: int) -> int:
    count: int = 0
    with omp("parallel for"):
        for i in range(n):
            if i %% m == 0:
                with omp("critical"):
                    count += 1
    return count

print(hits(%d, %d))
`, n, m)
	default:
		n, a, c := (200+rng.Int63n(1000))/scale, 1+rng.Int63n(20), rng.Int63n(100)
		want := int64(0)
		for i := int64(0); i < n; i++ {
			want += i*a + c
		}
		r.kind, r.want = "dynamic", fmt.Sprintf("%d\n", want)
		r.source = fmt.Sprintf(`from omp4py import *

@omp
def fill(n: int, a: int, c: int) -> int:
    xs = [0] * n
    with omp("parallel for schedule(dynamic, 16)"):
        for i in range(n):
            xs[i] = i * a + c
    s: int = 0
    for i in range(n):
        s += xs[i]
    return s

print(fill(%d, %d, %d))
`, n, a, c)
	}
	return r
}

type serveWorkload struct {
	srv     *serve.Server
	client  *http.Client
	base    string
	rate    float64
	limitMS float64
	reqs    []request
	next    int
}

func newServeWorkload(seed int64, seconds int, rate, limitMS float64, short bool) (*serveWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	// Enough requests for the whole measurement; a traced run splits
	// the same duration across its two phases.
	reqs := make([]request, int(rate*float64(seconds))+1)
	for i := range reqs {
		reqs[i] = genRequest(rng, short)
	}
	tokens := make([]string, serveTenants)
	for i := range tokens {
		tokens[i] = fmt.Sprintf("tenant%d=key%d", i, i)
	}
	srv := serve.New(serve.Config{
		Addr:         "127.0.0.1:0",
		MaxWorkers:   serveWorkers,
		Tokens:       tokens,
		DefaultQuota: serve.Quota{MaxThreads: serveThreads, MaxWall: reqTimeout},
	})
	if err := srv.Start(); err != nil {
		return nil, fmt.Errorf("start serve: %w", err)
	}
	w := &serveWorkload{
		srv: srv,
		client: &http.Client{Timeout: reqTimeout, Transport: &http.Transport{
			MaxConnsPerHost: serveInflight, MaxIdleConnsPerHost: serveInflight,
		}},
		base:    "http://" + srv.Addr(),
		rate:    rate,
		limitMS: limitMS,
		reqs:    reqs,
	}
	// Warm-up: every tenant runs a request in every mode, so sessions,
	// interpreters and worker pools exist before the first timed one.
	for t := 0; t < serveTenants; t++ {
		for _, mode := range serveModes {
			r := genRequest(rng, true)
			r.tenant, r.mode = t, mode
			if err := w.do(r, nil); err != nil {
				w.close()
				return nil, fmt.Errorf("warm-up: %w", err)
			}
		}
	}
	return w, nil
}

// close stops the server. Shutdown waits for in-flight runs; one that
// ignores its budget cannot be stopped, so the wait is bounded and the
// process exit reclaims whatever is left.
func (w *serveWorkload) close() {
	ctx, cancel := context.WithTimeout(context.Background(), reqTimeout)
	defer cancel()
	_ = within(2*reqTimeout, func() error { return w.srv.Shutdown(ctx) })
	w.client.CloseIdleConnections()
}

// do posts one request and checks the response against the expected
// stdout. A refused, failed or wrong request is an error.
func (w *serveWorkload) do(r request, tr *tracer) error {
	body, err := json.Marshal(serve.RunRequest{Source: r.source, Mode: r.mode, NumThreads: serveThreads})
	if err != nil {
		return err
	}
	req, err := http.NewRequest(http.MethodPost, w.base+"/v1/run", bytes.NewReader(body))
	if err != nil {
		return err
	}
	req.Header.Set("Authorization", fmt.Sprintf("Bearer key%d", r.tenant))
	sp := tr.begin("serve.request", nil, map[string]string{"mode": r.mode, "kind": r.kind})
	start := time.Now()
	resp, err := w.client.Do(req)
	if err != nil {
		return fmt.Errorf("%s/%s: %w", r.mode, r.kind, err)
	}
	raw, err := io.ReadAll(resp.Body)
	resp.Body.Close()
	sentMS := float64(time.Since(start).Nanoseconds()) / 1e6
	if err != nil {
		return fmt.Errorf("%s/%s: read response: %w", r.mode, r.kind, err)
	}
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("%s/%s: status %d: %s", r.mode, r.kind, resp.StatusCode, bytes.TrimSpace(raw))
	}
	var rr serve.RunResponse
	if err := json.Unmarshal(raw, &rr); err != nil {
		return fmt.Errorf("%s/%s: decode response: %w", r.mode, r.kind, err)
	}
	if !rr.OK {
		return fmt.Errorf("%s/%s: run failed: %v", r.mode, r.kind, rr.Error)
	}
	if rr.Stdout != r.want {
		return fmt.Errorf("%s/%s: stdout %q, want %q", r.mode, r.kind, rr.Stdout, r.want)
	}
	tr.end(sp, map[string]float64{
		"sent_ms": sentMS, "elapsed_ms": rr.ElapsedMS,
		"steps": float64(rr.Steps), "allocs": float64(rr.Allocs),
	})
	return nil
}

// measure offers requests at the fixed rate (an open loop: request i
// is due at start + i/rate whatever happened before it) with at most
// serveInflight outstanding. Latency is taken from when a request was
// due, so a stall charges every request queued behind it; how late the
// generator sent is kept too.
func (w *serveWorkload) measure(until time.Time, tr *tracer) phase {
	var p phase
	var before map[string]float64
	if tr != nil {
		var err error
		if before, err = w.metrics(); err != nil {
			p.attempted++
			p.fail(err)
			return p
		}
	}
	var mu sync.Mutex
	var wg sync.WaitGroup
	sem := make(chan struct{}, serveInflight)
	start := time.Now()
	interval := time.Duration(float64(time.Second) / w.rate)
	for i := 0; ; i++ {
		due := start.Add(time.Duration(i) * interval)
		if !due.Before(until) || w.next >= len(w.reqs) {
			break
		}
		waitUntil(due)
		sem <- struct{}{}
		late := float64(time.Since(due).Nanoseconds()) / 1e6
		r := w.reqs[w.next]
		w.next++
		wg.Add(1)
		go func() {
			defer wg.Done()
			err := w.do(r, tr)
			<-sem
			latMS := float64(time.Since(due).Nanoseconds()) / 1e6
			mu.Lock()
			defer mu.Unlock()
			p.attempted++
			p.lateMS = append(p.lateMS, late)
			if err != nil {
				p.fail(err)
				return
			}
			p.latMS = append(p.latMS, latMS)
			if latMS <= w.limitMS {
				p.good++
			}
		}()
	}
	wg.Wait()
	// Throughput is over the offered window, not the drain after it.
	p.seconds = until.Sub(start).Seconds()
	if tr != nil {
		// The server's own counters over the traced phase, as one span.
		sp := tr.begin("serve.metrics", nil, nil)
		after, err := w.metrics()
		if err != nil {
			p.attempted++
			p.fail(err)
			return p
		}
		delta := map[string]float64{}
		for k, v := range after {
			delta[k] = v - before[k]
		}
		tr.end(sp, delta)
	}
	return p
}

// timerSlack covers how late a Go timer fires on Linux (its poller
// waits in whole milliseconds).
const timerSlack = time.Millisecond

// waitUntil sleeps until just before t and yields until t, so sends
// leave on schedule instead of up to a timer tick late. The yield loop
// runs only when no other goroutine wants the processor.
func waitUntil(t time.Time) {
	time.Sleep(time.Until(t) - timerSlack)
	for time.Now().Before(t) {
		runtime.Gosched()
	}
}

// metrics scrapes /metrics and sums each series over tenants.
func (w *serveWorkload) metrics() (map[string]float64, error) {
	resp, err := w.client.Get(w.base + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	out := map[string]float64{}
	sc := bufio.NewScanner(resp.Body)
	for sc.Scan() {
		line := sc.Text()
		if strings.HasPrefix(line, "#") {
			continue
		}
		series, val, ok := strings.Cut(line, " ")
		if !ok {
			continue
		}
		v, err := strconv.ParseFloat(val, 64)
		if err != nil {
			continue
		}
		name, labels, _ := strings.Cut(series, "{")
		// Keep the state label of the time-attribution series; fold
		// the tenant label away.
		if i := strings.Index(labels, `state="`); i >= 0 {
			name += "." + strings.TrimSuffix(labels[i+len(`state="`):], `"}`)
		}
		out[name] += v
	}
	return out, sc.Err()
}

// probeSample is how many request sources the pipeline probe runs.
const probeSample = 500

// probe times the front-end layers on the sources the traced phase
// sent, after it, through the same public entry points the server
// calls per request.
func (w *serveWorkload) probe(tr *tracer) error {
	modes := map[string]bench.Mode{"pure": bench.Pure, "hybrid": bench.Hybrid, "compiled": bench.Compiled, "compileddt": bench.CompiledDT}
	// The most recent sources are a sample of the traced phase.
	for _, r := range w.reqs[max(0, w.next-probeSample):w.next] {
		if err := probePipeline(tr, r.source, "main.py", modes[r.mode], r.mode+"/"+r.kind); err != nil {
			return err
		}
	}
	return nil
}

var profStates = []string{"compute", "kernel", "barrier_wait", "taskwait", "steal_idle", "depend_stall"}

func (w *serveWorkload) layers(tr *tracer, base phase, m map[string]float64) {
	pipelineLayers(tr, m)
	m["interp.steps_per_req"] = mean(tr.attr("serve.request", "steps"))
	m["interp.allocs_per_req"] = mean(tr.attr("serve.request", "allocs"))
	m["serve.run_ms_p50"] = median(tr.attr("serve.request", "elapsed_ms"))
	var overhead []float64
	for _, s := range tr.byName("serve.request") {
		overhead = append(overhead, s.Attrs["sent_ms"]-s.Attrs["elapsed_ms"])
	}
	m["serve.overhead_ms_p50"] = median(overhead)
	m["bench.gen_late_ms_p99"] = quantile(base.lateMS, 0.99)
	// Time attribution is per request: the server's per-tenant
	// counters over the traced phase, summed over tenants.
	reqs := float64(len(tr.byName("serve.request")))
	for _, sp := range tr.byName("serve.metrics") {
		for _, st := range profStates {
			m["prof."+st+"_s"] = ratio(sp.Attrs["omp4go_serve_time_seconds_total."+st], reqs)
		}
		m["serve.shed_total"] = sp.Attrs["omp4go_serve_shed_total"]
	}
}
