package rt

import (
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

// poolEnv builds the NewWithEnv getenv for a given pool mode ("on",
// "off", or "" for the default).
func poolEnv(mode string) func(string) string {
	if mode == "" {
		return func(string) string { return "" }
	}
	return fakeEnv(map[string]string{"OMP4GO_POOL": mode})
}

func TestPoolEnabledEnv(t *testing.T) {
	for _, tc := range []struct {
		mode string
		want bool
	}{
		{"", true}, {"on", true}, {"1", true}, {"off", false}, {"0", false},
	} {
		r := NewWithEnv(LayerAtomic, poolEnv(tc.mode))
		if got := r.PoolEnabled(); got != tc.want {
			t.Errorf("OMP4GO_POOL=%q: PoolEnabled() = %v, want %v", tc.mode, got, tc.want)
		}
		r.Shutdown()
	}
}

// memberGtids runs one region of n threads and returns the gtids of
// the non-master members (the threads pool workers execute).
func memberGtids(t *testing.T, r *Runtime, n int) map[int32]bool {
	t.Helper()
	var mu sync.Mutex
	gtids := make(map[int32]bool)
	err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: n}, func(c *Context) error {
		if c.GetThreadNum() != 0 {
			mu.Lock()
			gtids[c.gtid] = true
			mu.Unlock()
		}
		return nil
	})
	if err != nil {
		t.Fatalf("Parallel: %v", err)
	}
	return gtids
}

// TestPoolGtidStability: with the pool on, non-master members carry
// the same worker gtids across consecutive regions — the stable
// thread-identity contract OMPT rings and recycled deques rely on.
// With the pool off, every region gets fresh identities.
func TestPoolGtidStability(t *testing.T) {
	const n, regions = 4, 5
	for _, l := range bothLayers {
		pooled := NewWithEnv(l, poolEnv("on"))
		union := make(map[int32]bool)
		for i := 0; i < regions; i++ {
			for g := range memberGtids(t, pooled, n) {
				union[g] = true
			}
		}
		if len(union) != n-1 {
			t.Errorf("%v pool=on: %d distinct member gtids over %d regions, want %d",
				l, len(union), regions, n-1)
		}
		pooled.Shutdown()

		spawned := NewWithEnv(l, poolEnv("off"))
		union = make(map[int32]bool)
		for i := 0; i < regions; i++ {
			for g := range memberGtids(t, spawned, n) {
				union[g] = true
			}
		}
		if len(union) != (n-1)*regions {
			t.Errorf("%v pool=off: %d distinct member gtids over %d regions, want %d",
				l, len(union), regions, (n-1)*regions)
		}
	}
}

// TestPoolSlotsReleased: when Parallel returns, every borrowed worker
// is back on the free list — no slot leaks.
func TestPoolSlotsReleased(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, poolEnv("on"))
		for i := 0; i < 3; i++ {
			var ran atomic.Int32
			err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 6}, func(c *Context) error {
				ran.Add(1)
				return nil
			})
			if err != nil {
				t.Fatalf("%v: %v", l, err)
			}
			if got := ran.Load(); got != 6 {
				t.Fatalf("%v: ran %d threads, want 6", l, got)
			}
			idle, total := r.pool.counts()
			if idle != total {
				t.Fatalf("%v region %d: %d idle != %d total — leaked pool slots", l, i, idle, total)
			}
			if total < 5 {
				t.Fatalf("%v region %d: total %d workers, want >= 5", l, i, total)
			}
		}
		r.Shutdown()
	}
}

// TestNestedParallelPoolMatrix covers nested regions across both sync
// layers and both pool modes: team sizes, ancestor thread numbers,
// and active levels must be identical in all four cells, and the pool
// must hold no borrowed slots afterwards.
func TestNestedParallelPoolMatrix(t *testing.T) {
	for _, l := range bothLayers {
		for _, mode := range []string{"on", "off"} {
			r := NewWithEnv(l, poolEnv(mode))
			r.SetNested(true)
			var inner atomic.Int32
			var badTeam, badAncestor, badLevel atomic.Int32
			err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 3}, func(outer *Context) error {
				outerNum := outer.GetThreadNum()
				if outer.GetNumThreads() != 3 {
					badTeam.Add(1)
				}
				return r.Parallel(outer, ParallelOpts{NumThreads: 2}, func(c *Context) error {
					inner.Add(1)
					if c.GetNumThreads() != 2 || c.GetTeamSize(1) != 3 {
						badTeam.Add(1)
					}
					if c.GetAncestorThreadNum(1) != outerNum {
						badAncestor.Add(1)
					}
					if c.GetActiveLevel() != 2 || c.GetLevel() != 2 {
						badLevel.Add(1)
					}
					return nil
				})
			})
			if err != nil {
				t.Fatalf("%v pool=%s: %v", l, mode, err)
			}
			if got := inner.Load(); got != 6 {
				t.Errorf("%v pool=%s: %d inner executions, want 6", l, mode, got)
			}
			if badTeam.Load() != 0 || badAncestor.Load() != 0 || badLevel.Load() != 0 {
				t.Errorf("%v pool=%s: team/ancestor/level mismatches: %d/%d/%d",
					l, mode, badTeam.Load(), badAncestor.Load(), badLevel.Load())
			}
			if mode == "on" {
				idle, total := r.pool.counts()
				if idle != total {
					t.Errorf("%v pool=on: %d idle != %d total after nested regions", l, idle, total)
				}
			}
			r.Shutdown()
		}
	}
}

// TestShutdownFallsBackToSpawn: a runtime stays usable after
// Shutdown, spawning goroutines per region, and the pool stays empty.
func TestShutdownFallsBackToSpawn(t *testing.T) {
	r := NewWithEnv(LayerAtomic, poolEnv("on"))
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	r.Shutdown()
	var ran atomic.Int32
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		ran.Add(1)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if ran.Load() != 4 {
		t.Fatalf("post-shutdown region ran %d threads, want 4", ran.Load())
	}
	if idle, total := r.pool.counts(); idle != 0 || total != 0 {
		t.Fatalf("post-shutdown pool holds %d idle / %d total workers, want 0/0", idle, total)
	}
}

// TestWorkerIdleRetirement: parked workers retire after the idle
// timeout, so short-lived runtimes do not pin goroutines.
func TestWorkerIdleRetirement(t *testing.T) {
	r := NewWithEnv(LayerAtomic, poolEnv("on"))
	if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if _, total := r.pool.counts(); total == 0 {
		t.Fatal("no pool workers after a 4-thread region")
	}
	deadline := time.Now().Add(10 * workerIdleTimeout)
	for {
		if _, total := r.pool.counts(); total == 0 {
			return
		}
		if time.Now().After(deadline) {
			_, total := r.pool.counts()
			t.Fatalf("%d workers still live after idle timeout", total)
		}
		time.Sleep(workerIdleTimeout / 5)
	}
}

// TestWaitPolicyICV exercises SetWaitPolicy: both values work under
// both layers, pool dispatch still functions with active spinning,
// and invalid values are rejected.
func TestWaitPolicyICV(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, poolEnv("on"))
		if got := r.GetWaitPolicy(); got != "passive" {
			t.Errorf("%v: default wait policy %q, want passive", l, got)
		}
		if err := r.SetWaitPolicy("active"); err != nil {
			t.Fatalf("%v: SetWaitPolicy(active): %v", l, err)
		}
		if got := r.GetWaitPolicy(); got != "active" {
			t.Errorf("%v: wait policy %q after set, want active", l, got)
		}
		// Back-to-back regions: the second dispatch tends to catch
		// workers inside the active spin loop's poll path.
		for i := 0; i < 5; i++ {
			var ran atomic.Int32
			if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
				ran.Add(1)
				return nil
			}); err != nil {
				t.Fatalf("%v: %v", l, err)
			}
			if ran.Load() != 4 {
				t.Fatalf("%v: ran %d threads under active policy, want 4", l, ran.Load())
			}
		}
		if err := r.SetWaitPolicy("eager"); err == nil {
			t.Errorf("%v: SetWaitPolicy(eager) succeeded, want error", l)
		}
		r.Shutdown()
	}
}

// TestPoolDifferentialWorkload runs the same task-spawning workload
// under both pool modes and both layers; results must agree — the
// spawn-per-region path is the differential baseline for the pool.
func TestPoolDifferentialWorkload(t *testing.T) {
	workload := func(r *Runtime) int64 {
		var sum atomic.Int64
		err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
			for i := 0; i < 8; i++ {
				i := i
				if err := c.SubmitTask(TaskOpts{}, func(tc *Context) error {
					sum.Add(int64(c.GetThreadNum()*100 + i))
					return nil
				}); err != nil {
					return err
				}
			}
			return c.TaskWait()
		})
		if err != nil {
			t.Fatalf("workload: %v", err)
		}
		return sum.Load()
	}
	var want int64
	for ti := 0; ti < 4; ti++ {
		for i := 0; i < 8; i++ {
			want += int64(ti*100 + i)
		}
	}
	for _, l := range bothLayers {
		for _, mode := range []string{"on", "off"} {
			r := NewWithEnv(l, poolEnv(mode))
			for rep := 0; rep < 3; rep++ {
				if got := workload(r); got != want {
					t.Errorf("%v pool=%s rep %d: sum = %d, want %d", l, mode, rep, got, want)
				}
			}
			r.Shutdown()
		}
	}
}

// TestTeamRecycling: in pool mode, repeated same-size regions reuse
// cached teams; the cache stays bounded and holds only cleanly-joined
// teams.
func TestTeamRecycling(t *testing.T) {
	r := NewWithEnv(LayerAtomic, poolEnv("on"))
	for i := 0; i < 3*maxCachedTeams; i++ {
		if err := r.Parallel(r.NewContext(), ParallelOpts{NumThreads: 4}, func(c *Context) error {
			return nil
		}); err != nil {
			t.Fatal(err)
		}
	}
	r.teamCacheMu.Lock()
	cached := len(r.teamCache[4])
	r.teamCacheMu.Unlock()
	if cached == 0 {
		t.Error("no teams cached after repeated 4-thread regions")
	}
	if cached > maxCachedTeams {
		t.Errorf("%d teams cached, cap is %d", cached, maxCachedTeams)
	}
	r.Shutdown()
}

// TestPooledSerialRegionAllocFree pins the allocation-free fork and
// wait path: a pooled 1-thread region whose body passes an explicit
// barrier and a childless taskwait allocates nothing, in either layer.
func TestPooledSerialRegionAllocFree(t *testing.T) {
	for _, l := range bothLayers {
		r := NewWithEnv(l, poolEnv("on"))
		ctx := r.NewContext()
		body := func(c *Context) error {
			if err := c.Barrier(); err != nil {
				return err
			}
			return c.TaskWait()
		}
		allocs := testing.AllocsPerRun(200, func() {
			if err := r.Parallel(ctx, ParallelOpts{NumThreads: 1}, body); err != nil {
				t.Fatal(err)
			}
		})
		r.Shutdown()
		if allocs != 0 {
			t.Errorf("%v: %v allocs per region, want 0", l, allocs)
		}
	}
}
