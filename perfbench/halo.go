package main

import (
	"fmt"
	"math"
	"math/rand"
	"time"

	"github.com/omp4go/omp4go/internal/bench"
	"github.com/omp4go/omp4go/internal/metrics"
	"github.com/omp4go/omp4go/internal/mpi"
)

// The mpi-halo workload: halo-exchange jacobi on the in-process
// transport, 2 ranks of 1 OpenMP thread, each boundary row sent as
// several chunks that coalesce into one batch per neighbour.
const (
	haloRanks   = 2
	haloThreads = 1
	haloChunks  = 4
	// haloGrids is how many distinct seeded grids a run cycles through.
	haloGrids = 3
)

type haloWorkload struct {
	cfgs []bench.HaloConfig
	refs []bench.HaloResult
	next int
}

func newHaloWorkload(seed int64, short bool) (*haloWorkload, error) {
	rng := rand.New(rand.NewSource(seed))
	rows, cols, iters := 384, 384, 100
	if short {
		rows, cols, iters = 8, 8, 2
	}
	w := &haloWorkload{}
	for i := 0; i < haloGrids; i++ {
		cfg := bench.HaloConfig{Rows: rows, Cols: cols, Iters: iters, Seed: 1 + rng.Int63n(1<<20),
			Threads: haloThreads, Chunks: haloChunks}
		w.cfgs = append(w.cfgs, cfg)
		w.refs = append(w.refs, bench.SequentialHaloJacobi(cfg))
	}
	// Warm-up: one run, which also checks the set-up end to end.
	if _, err := w.runOne(nil); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	return w, nil
}

func (w *haloWorkload) close() {}

// measure runs halo jacobi back to back (a closed loop with one
// client) until the deadline. Each operation is one mpi.Run of Iters
// sweeps; its latency is reported per sweep.
func (w *haloWorkload) measure(until time.Time, tr *tracer) phase {
	var p phase
	start := time.Now()
	for time.Now().Before(until) {
		ms, err := w.runOne(tr)
		p.attempted++
		if err != nil {
			p.fail(err)
			if p.aborted {
				break
			}
			continue
		}
		p.good++
		p.latMS = append(p.latMS, ms)
		cfg := w.cfgs[0]
		p.mcells += float64(cfg.Rows*cfg.Cols*cfg.Iters) / 1e6
	}
	p.seconds = time.Since(start).Seconds()
	return p
}

// runOne runs one grid on a fresh in-process world and compares every
// rank's cells bit for bit with the sequential sweep. It returns the
// wall time per sweep in ms.
func (w *haloWorkload) runOne(tr *tracer) (float64, error) {
	i := w.next % len(w.cfgs)
	w.next++
	cfg, ref := w.cfgs[i], w.refs[i]
	results := make([]bench.HaloResult, haloRanks)
	snaps := make([]*metrics.Snapshot, haloRanks)
	sp := tr.begin("mpi.Run", nil, map[string]string{"grid": fmt.Sprint(i)})
	start := time.Now()
	err := within(opTimeout, func() error {
		return mpi.Run(haloRanks, nil, func(c *mpi.Comm) error {
			res, err := bench.RunHaloJacobi(c, cfg)
			results[c.Rank()], snaps[c.Rank()] = res, c.MetricsSnapshot()
			return err
		})
	})
	sweepMS := float64(time.Since(start).Nanoseconds()) / 1e6 / float64(cfg.Iters)
	if err != nil {
		return 0, fmt.Errorf("halo grid %d: %w", i, err)
	}
	for r, res := range results {
		if err := haloMatches(res, ref); err != nil {
			return 0, fmt.Errorf("halo grid %d rank %d: %w", i, r, err)
		}
	}
	attrs := map[string]float64{"sweeps": float64(cfg.Iters)}
	for _, s := range snaps {
		attrs["msgs"] += float64(s.Counter(metrics.MPIMsgs))
		attrs["bytes"] += float64(s.Counter(metrics.MPIBytes))
		attrs["coalesced"] += float64(s.Counter(metrics.MPICoalesced))
		attrs["send_wait_s"] += float64(s.Hists[metrics.HistMPISendWait].SumNS) / 1e9
		attrs["recv_wait_s"] += float64(s.Hists[metrics.HistMPIRecvWait].SumNS) / 1e9
	}
	tr.end(sp, attrs)
	return sweepMS, nil
}

// haloMatches checks a distributed result against the sequential
// reference: the cells are bit-identical for every decomposition; the
// residual is summed in another order across ranks, so it is compared
// to a relative tolerance.
func haloMatches(got, want bench.HaloResult) error {
	if len(got.Cells) != len(want.Cells) {
		return fmt.Errorf("%d cells, want %d", len(got.Cells), len(want.Cells))
	}
	for k := range got.Cells {
		if math.Float64bits(got.Cells[k]) != math.Float64bits(want.Cells[k]) {
			return fmt.Errorf("cell %d = %v, want %v", k, got.Cells[k], want.Cells[k])
		}
	}
	if math.Abs(got.Residual-want.Residual) > 1e-9*(1+math.Abs(want.Residual)) {
		return fmt.Errorf("residual %v, want %v", got.Residual, want.Residual)
	}
	return nil
}

// layers derives the MPI per-layer metrics, per sweep.
func (w *haloWorkload) layers(tr *tracer, _ phase, m map[string]float64) {
	sweeps := sum(tr.attr("mpi.Run", "sweeps"))
	msgs := sum(tr.attr("mpi.Run", "msgs"))
	m["mpi.msgs_per_sweep"] = ratio(msgs, sweeps)
	m["mpi.bytes_per_sweep"] = ratio(sum(tr.attr("mpi.Run", "bytes")), sweeps)
	m["mpi.coalesced_ratio"] = ratio(sum(tr.attr("mpi.Run", "coalesced")), msgs)
	m["mpi.send_wait_s"] = ratio(sum(tr.attr("mpi.Run", "send_wait_s")), sweeps)
	m["mpi.recv_wait_s"] = ratio(sum(tr.attr("mpi.Run", "recv_wait_s")), sweeps)
}

func (w *haloWorkload) probe(*tracer) error { return nil }
