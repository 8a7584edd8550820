package rt

import (
	"sync"
	"testing"
	"time"

	"github.com/omp4go/omp4go/internal/directive"
	"github.com/omp4go/omp4go/internal/ompt"
)

// recordingTool captures every event under a mutex, for asserting
// exact sequences (the built-in Tracer reorders by timestamp).
type recordingTool struct {
	mu   sync.Mutex
	recs []ompt.Record
}

func (t *recordingTool) Emit(rec ompt.Record) {
	t.mu.Lock()
	t.recs = append(t.recs, rec)
	t.mu.Unlock()
}

// byGTID splits the captured stream into per-thread sequences,
// preserving each thread's emission order.
func (t *recordingTool) byGTID() map[int32][]ompt.Record {
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make(map[int32][]ompt.Record)
	for _, r := range t.recs {
		out[r.GTID] = append(out[r.GTID], r)
	}
	return out
}

func kinds(recs []ompt.Record) []ompt.EventKind {
	out := make([]ompt.EventKind, len(recs))
	for i, r := range recs {
		out[i] = r.Kind
	}
	return out
}

func kindsEqual(got, want []ompt.EventKind) bool {
	if len(got) != len(want) {
		return false
	}
	for i := range got {
		if got[i] != want[i] {
			return false
		}
	}
	return true
}

// runTracedFor runs a 2-thread parallel for over [0, total) with the
// given schedule and returns the recorded events.
func runTracedFor(t *testing.T, l Layer, opts ForOpts, total int64) *recordingTool {
	t.Helper()
	r := newTestRuntime(l)
	rec := &recordingTool{}
	r.SetTool(rec)
	ctx := r.NewContext()
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
		b := ForBounds(Triplet{Start: 0, End: total, Step: 1})
		if err := c.ForInit(b, opts); err != nil {
			return err
		}
		for b.ForNext() {
			for i := b.Lo; i < b.Hi; i++ {
				_ = i
			}
		}
		return c.ForEnd(b)
	})
	if err != nil {
		t.Fatalf("parallel for failed: %v", err)
	}
	return rec
}

// TestTraceStaticForSequence asserts the exact per-thread event
// sequence of a 2-thread static parallel for: implicit task begin,
// loop begin, one block chunk, loop end, the loop's implicit barrier,
// the region-end implicit barrier, implicit task end.
func TestTraceStaticForSequence(t *testing.T) {
	for _, l := range bothLayers {
		rec := runTracedFor(t, l, ForOpts{}, 100)
		seqs := rec.byGTID()

		wantWorker := []ompt.EventKind{
			ompt.EvImplicitTaskBegin,
			ompt.EvLoopBegin,
			ompt.EvLoopChunk,
			ompt.EvLoopEnd,
			ompt.EvBarrierEnter, ompt.EvBarrierExit,
			ompt.EvBarrierEnter, ompt.EvBarrierExit,
			ompt.EvImplicitTaskEnd,
		}
		workers := 0
		var master []ompt.Record
		for gtid, seq := range seqs {
			if seq[0].Kind == ompt.EvParallelBegin {
				master = seq
				continue
			}
			if !kindsEqual(kinds(seq), wantWorker) {
				t.Fatalf("layer %v gtid %d: sequence %v, want %v", l, gtid, kinds(seq), wantWorker)
			}
			// The static block partition gives thread n the half
			// [n*50, n*50+50); the thread number rides in the
			// implicit-task event.
			num := seq[0].B
			chunk := seq[2]
			if chunk.A != num*50 || chunk.B != num*50+50 {
				t.Fatalf("layer %v thread %d: chunk [%d,%d), want [%d,%d)",
					l, num, chunk.A, chunk.B, num*50, num*50+50)
			}
			if chunk.Dur < 0 {
				t.Fatalf("negative chunk duration %d", chunk.Dur)
			}
			// Both barriers are implicit, with per-thread epochs 1, 2.
			for i, idx := range []int{4, 6} {
				enter, exit := seq[idx], seq[idx+1]
				if enter.A != ompt.BarrierImplicit || exit.A != ompt.BarrierImplicit {
					t.Fatalf("barrier kind = %d/%d, want implicit", enter.A, exit.A)
				}
				if wantEpoch := int64(i + 1); enter.B != wantEpoch || exit.B != wantEpoch {
					t.Fatalf("barrier epoch = %d/%d, want %d", enter.B, exit.B, wantEpoch)
				}
				if exit.Dur < 0 {
					t.Fatalf("negative barrier wait %d", exit.Dur)
				}
			}
			workers++
		}
		if workers != 2 {
			t.Fatalf("layer %v: %d worker sequences, want 2", l, workers)
		}
		if master == nil {
			t.Fatalf("layer %v: no parallel begin/end sequence", l)
		}
		if !kindsEqual(kinds(master), []ompt.EventKind{ompt.EvParallelBegin, ompt.EvParallelEnd}) {
			t.Fatalf("layer %v: master sequence %v", l, kinds(master))
		}
		if master[0].B != 2 || master[1].Dur <= 0 {
			t.Fatalf("layer %v: parallel events %+v", l, master)
		}
	}
}

// TestTraceDynamicForCoverage asserts that the chunk events of a
// dynamic schedule tile [0, total) exactly once, and that each
// thread's stream stays well-formed.
func TestTraceDynamicForCoverage(t *testing.T) {
	for _, l := range bothLayers {
		const total = 100
		rec := runTracedFor(t, l, ForOpts{
			Sched:    Schedule{Kind: directive.ScheduleDynamic, Chunk: 7},
			SchedSet: true,
		}, total)

		covered := make([]int, total)
		for gtid, seq := range rec.byGTID() {
			if seq[0].Kind == ompt.EvParallelBegin {
				continue
			}
			ks := kinds(seq)
			if ks[0] != ompt.EvImplicitTaskBegin || ks[1] != ompt.EvLoopBegin {
				t.Fatalf("layer %v gtid %d: sequence starts %v", l, gtid, ks[:2])
			}
			if ks[len(ks)-1] != ompt.EvImplicitTaskEnd {
				t.Fatalf("layer %v gtid %d: sequence ends %v", l, gtid, ks[len(ks)-1])
			}
			sawLoopEnd := false
			for _, r := range seq {
				switch r.Kind {
				case ompt.EvLoopChunk:
					if sawLoopEnd {
						t.Fatalf("chunk event after loop end")
					}
					if r.A < 0 || r.B > total || r.A >= r.B {
						t.Fatalf("bad chunk bounds [%d,%d)", r.A, r.B)
					}
					for i := r.A; i < r.B; i++ {
						covered[i]++
					}
				case ompt.EvLoopEnd:
					sawLoopEnd = true
				}
			}
			if !sawLoopEnd {
				t.Fatalf("layer %v gtid %d: no loop-end event", l, gtid)
			}
			if sched := seq[1].Label; sched != "dynamic" {
				t.Fatalf("loop begin schedule label = %q, want dynamic", sched)
			}
		}
		for i, n := range covered {
			if n != 1 {
				t.Fatalf("layer %v: iteration %d traced %d times", l, i, n)
			}
		}
	}
}

// TestTraceBarrierWait asserts the wait-time accounting: a thread
// arriving early at a barrier observes at least the latecomer's delay
// as wait time, and successive barriers report increasing epochs.
func TestTraceBarrierWait(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	rec := &recordingTool{}
	r.SetTool(rec)
	ctx := r.NewContext()
	const delay = 50 * time.Millisecond
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
		if c.ThreadNum() == 0 {
			time.Sleep(delay)
		}
		if err := c.Barrier(); err != nil {
			return err
		}
		return c.Barrier()
	})
	if err != nil {
		t.Fatalf("parallel failed: %v", err)
	}
	for gtid, seq := range rec.byGTID() {
		if seq[0].Kind == ompt.EvParallelBegin {
			continue
		}
		var exits []ompt.Record
		for _, r := range seq {
			if r.Kind == ompt.EvBarrierExit {
				exits = append(exits, r)
			}
		}
		// Two explicit barriers plus the region-end implicit one.
		if len(exits) != 3 {
			t.Fatalf("gtid %d: %d barrier exits, want 3", gtid, len(exits))
		}
		for i, e := range exits {
			if e.Dur < 0 {
				t.Fatalf("gtid %d: negative barrier wait %d", gtid, e.Dur)
			}
			if want := int64(i + 1); e.B != want {
				t.Fatalf("gtid %d: barrier epoch %d, want %d (monotonic)", gtid, e.B, want)
			}
		}
		if exits[0].A != ompt.BarrierExplicit || exits[2].A != ompt.BarrierImplicit {
			t.Fatalf("gtid %d: barrier kinds %d,%d", gtid, exits[0].A, exits[2].A)
		}
		// The thread that did not sleep (thread 1) waited for the
		// sleeper at the first barrier.
		if seq[0].B == 1 && exits[0].Dur < int64(delay/2) {
			t.Fatalf("early thread's first barrier wait = %s, want >= %s",
				time.Duration(exits[0].Dur), delay/2)
		}
	}
}

// TestTraceTaskEvents asserts create/begin/end pairing and queue-depth
// reporting for explicit tasks.
func TestTraceTaskEvents(t *testing.T) {
	for _, l := range bothLayers {
		r := newTestRuntime(l)
		rec := &recordingTool{}
		r.SetTool(rec)
		ctx := r.NewContext()
		const tasks = 8
		err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.ThreadNum() == 0 {
				for i := 0; i < tasks; i++ {
					if err := c.SubmitTask(TaskOpts{}, func(*Context) error { return nil }); err != nil {
						return err
					}
				}
			}
			return nil
		})
		if err != nil {
			t.Fatalf("parallel failed: %v", err)
		}
		rec.mu.Lock()
		created, begun, ended := map[int64]bool{}, map[int64]bool{}, map[int64]bool{}
		var maxDepth int64
		for _, r := range rec.recs {
			switch r.Kind {
			case ompt.EvTaskCreate:
				created[r.A] = true
				if r.B > maxDepth {
					maxDepth = r.B
				}
			case ompt.EvTaskBegin:
				begun[r.A] = true
			case ompt.EvTaskEnd:
				ended[r.A] = true
				if r.Dur < 0 {
					t.Fatalf("negative task duration")
				}
			}
		}
		rec.mu.Unlock()
		if len(created) != tasks || len(begun) != tasks || len(ended) != tasks {
			t.Fatalf("layer %v: created %d begun %d ended %d, want %d each",
				l, len(created), len(begun), len(ended), tasks)
		}
		if maxDepth < 1 {
			t.Fatalf("layer %v: max queue depth %d, want >= 1", l, maxDepth)
		}
	}
}

// TestTraceCriticalContention asserts that critical acquire events
// carry contention wait and release events carry hold time.
func TestTraceCriticalContention(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	rec := &recordingTool{}
	r.SetTool(rec)
	ctx := r.NewContext()
	const hold = 30 * time.Millisecond
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
		c.CriticalEnter("sec")
		time.Sleep(hold)
		c.CriticalExit("sec")
		return nil
	})
	if err != nil {
		t.Fatalf("parallel failed: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	var acquires, releases []ompt.Record
	for _, r := range rec.recs {
		switch r.Kind {
		case ompt.EvCriticalAcquire:
			acquires = append(acquires, r)
		case ompt.EvCriticalRelease:
			releases = append(releases, r)
		}
	}
	if len(acquires) != 2 || len(releases) != 2 {
		t.Fatalf("%d acquires, %d releases, want 2 each", len(acquires), len(releases))
	}
	var maxWait, maxHeld int64
	for _, a := range acquires {
		if a.Label != "sec" {
			t.Fatalf("acquire label %q", a.Label)
		}
		if a.Dur > maxWait {
			maxWait = a.Dur
		}
	}
	for _, rl := range releases {
		if rl.Dur > maxHeld {
			maxHeld = rl.Dur
		}
	}
	// The second thread contended for the full hold duration.
	if maxWait < int64(hold/2) {
		t.Fatalf("max critical wait = %s, want >= %s", time.Duration(maxWait), hold/2)
	}
	if maxHeld < int64(hold/2) {
		t.Fatalf("max critical hold = %s, want >= %s", time.Duration(maxHeld), hold/2)
	}
}

// TestTraceReductionMerge asserts the reduce-merge instant event.
func TestTraceReductionMerge(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	rec := &recordingTool{}
	r.SetTool(rec)
	ctx := r.NewContext()
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
		c.ReductionMerge("+:total")
		return nil
	})
	if err != nil {
		t.Fatalf("parallel failed: %v", err)
	}
	rec.mu.Lock()
	defer rec.mu.Unlock()
	merges := 0
	for _, r := range rec.recs {
		if r.Kind == ompt.EvReduceMerge {
			if r.Label != "+:total" {
				t.Fatalf("merge label %q", r.Label)
			}
			merges++
		}
	}
	if merges != 2 {
		t.Fatalf("%d merge events, want 2", merges)
	}
}

// TestTraceDisabledEmitsNothing asserts the disabled fast path: with
// no tool attached nothing is recorded even through the instrumented
// entry points.
func TestTraceDisabledEmitsNothing(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	rec := &recordingTool{}
	ctx := r.NewContext()
	err := r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
		b := ForBounds(Triplet{Start: 0, End: 10, Step: 1})
		if err := c.ForInit(b, ForOpts{}); err != nil {
			return err
		}
		for b.ForNext() {
		}
		c.CriticalEnter("sec")
		c.CriticalExit("sec")
		c.ReductionMerge("x")
		if err := c.SubmitTask(TaskOpts{}, func(*Context) error { return nil }); err != nil {
			return err
		}
		return c.ForEnd(b)
	})
	if err != nil {
		t.Fatalf("parallel failed: %v", err)
	}
	// Attaching afterwards must not resurrect past events.
	r.SetTool(rec)
	if n := len(rec.recs); n != 0 {
		t.Fatalf("%d events recorded with tracing disabled", n)
	}
}

// TestTracerRecordsWhileRegionRuns snapshots a Tracer while a region
// is still emitting into it: one member submits tasks until the
// snapshots are done while the other steals and runs them, and a
// small ring keeps wrapping under the reader. Every snapshot must be
// coherent — time-ordered, no torn (zero) records — and under -race
// the reads must not race the pushes.
func TestTracerRecordsWhileRegionRuns(t *testing.T) {
	r := newTestRuntime(LayerAtomic)
	defer r.Shutdown()
	tr := ompt.NewTracer(64)
	r.SetTool(tr)
	started, snapped := make(chan struct{}), make(chan struct{})
	done := make(chan error, 1)
	go func() {
		ctx := r.NewContext()
		done <- r.Parallel(ctx, ParallelOpts{NumThreads: 2}, func(c *Context) error {
			if c.num != 0 {
				return nil // drains the tasks from the closing barrier
			}
			close(started)
			for {
				select {
				case <-snapped:
					return c.TaskWait()
				default:
				}
				if err := c.SubmitTask(TaskOpts{}, func(*Context) error { return nil }); err != nil {
					return err
				}
			}
		})
	}()
	<-started
	for i := 0; i < 50; i++ {
		recs := tr.Records()
		for j, rec := range recs {
			if rec.Kind == ompt.EvNone {
				t.Fatalf("snapshot %d: record %d is torn: %+v", i, j, rec)
			}
			if j > 0 && rec.Time < recs[j-1].Time {
				t.Fatalf("snapshot %d: records out of time order at %d", i, j)
			}
		}
		_ = tr.Dropped()
	}
	close(snapped)
	if err := <-done; err != nil {
		t.Fatalf("region: %v", err)
	}
	if tr.Dropped() == 0 {
		t.Error("the 64-record rings never wrapped; the test did not exercise a live overwrite")
	}
}
