package rt

import (
	"sync"

	"github.com/omp4go/omp4go/internal/ompt"
)

// This file implements live introspection of in-flight parallel
// regions. The state is opt-in: Parallel pays one atomic load of
// r.obs per region when introspection is off, and registers its team
// in the obsState registry when it is on. The watchdog sampler
// (watchdog.go) and the /debug/omp endpoint (serve.go) both read
// regions through snapshotRegions.

// obsState is the introspection registry: the set of in-flight teams,
// and the most recent stall reports for /debug/omp. The mutex also
// provides the happens-before edge that makes the watchdog's reads of
// member plain fields (num, gtid, the members slice itself) safe:
// Parallel finishes member setup before register, and the watchdog
// reads only while holding the same mutex.
type obsState struct {
	mu    sync.Mutex
	teams map[int32]*Team

	stallMu sync.Mutex
	stalls  []StallReport // most recent first, bounded by maxStallReports
}

// maxStallReports bounds the stall history kept for /debug/omp.
const maxStallReports = 32

// ensureObs enables introspection, returning the (single) obsState.
func (r *Runtime) ensureObs() *obsState {
	for {
		if o := r.obs.Load(); o != nil {
			return o
		}
		o := &obsState{teams: make(map[int32]*Team)}
		if r.obs.CompareAndSwap(nil, o) {
			return o
		}
	}
}

func (o *obsState) register(t *Team) {
	o.mu.Lock()
	o.teams[t.regionID] = t
	o.mu.Unlock()
}

func (o *obsState) unregister(t *Team) {
	o.mu.Lock()
	delete(o.teams, t.regionID)
	o.mu.Unlock()
}

func (o *obsState) addStall(rep StallReport) {
	o.stallMu.Lock()
	o.stalls = append([]StallReport{rep}, o.stalls...)
	if len(o.stalls) > maxStallReports {
		o.stalls = o.stalls[:maxStallReports]
	}
	o.stallMu.Unlock()
}

// StallReports returns the watchdog's recent stall reports, most
// recent first. Empty until the watchdog flags something.
func (r *Runtime) StallReports() []StallReport {
	o := r.obs.Load()
	if o == nil {
		return nil
	}
	o.stallMu.Lock()
	out := make([]StallReport, len(o.stalls))
	copy(out, o.stalls)
	o.stallMu.Unlock()
	return out
}

// MemberInfo is the introspection view of one team member.
type MemberInfo struct {
	GTID      int32  `json:"gtid"`
	ThreadNum int    `json:"thread_num"`
	Wait      string `json:"wait,omitempty"` // "", "barrier", "taskwait", "taskgroup", "depend"
	// WaitFor names what the wait is on ("3 child task(s)",
	// "taskgroup #7", "2 unresolved predecessor(s)") when the wait
	// site published a detail string.
	WaitFor    string `json:"wait_for,omitempty"`
	WaitNS     int64  `json:"wait_ns,omitempty"`
	DequeDepth int    `json:"deque_depth"`
}

// RegionInfo is the introspection view of one in-flight parallel
// region.
type RegionInfo struct {
	RegionID    int32 `json:"region_id"`
	Size        int   `json:"size"`
	Outstanding int64 `json:"outstanding_tasks"`
	// QueuedTasks counts the unclaimed tasks the region's scheduler
	// holds anywhere — per-member deques, the steal scheduler's
	// overflow list, or the list schedulers' shared queue — so it is
	// meaningful in every scheduler mode, unlike the per-member
	// DequeDepth breakdown.
	QueuedTasks int          `json:"queued_tasks"`
	Members     []MemberInfo `json:"members"`
}

// snapshotRegions captures every registered in-flight region. Member
// wait states and deque depths are read through atomics (or the
// scheduler's own locks), so a region actively executing is sampled
// without perturbing it.
func (o *obsState) snapshotRegions() []RegionInfo {
	o.mu.Lock()
	defer o.mu.Unlock()
	now := ompt.Now()
	out := make([]RegionInfo, 0, len(o.teams))
	for _, t := range o.teams {
		ri := RegionInfo{
			RegionID:    t.regionID,
			Size:        t.size,
			Outstanding: t.outstanding.Load(),
			QueuedTasks: t.sched.runnable(),
			Members:     make([]MemberInfo, 0, t.size),
		}
		depths := t.sched.depths()
		for i, m := range t.members {
			if m == nil {
				continue
			}
			mi := MemberInfo{GTID: m.gtid, ThreadNum: m.num}
			if site := m.waitSite.Load(); site != nil {
				mi.Wait = site.name
				if d := m.waitDetail.Load(); d != nil {
					mi.WaitFor = *d
				}
				if since := m.waitSince.Load(); since > 0 && now > since {
					mi.WaitNS = now - since
				}
			}
			if i < len(depths) {
				mi.DequeDepth = depths[i]
			}
			ri.Members = append(ri.Members, mi)
		}
		out = append(out, ri)
	}
	return out
}

// InflightRegions returns the introspection view of the runtime's
// in-flight parallel regions; nil when introspection is disabled.
func (r *Runtime) InflightRegions() []RegionInfo {
	o := r.obs.Load()
	if o == nil {
		return nil
	}
	return o.snapshotRegions()
}
