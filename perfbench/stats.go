package main

import (
	"bufio"
	"fmt"
	"math"
	"os"
	"runtime"
	"runtime/debug"
	"sort"
	"strconv"
	"strings"
)

// quantile returns the q-quantile of xs by linear interpolation
// between closest ranks (0 for no samples).
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	lo := int(math.Floor(pos))
	hi := int(math.Ceil(pos))
	return s[lo] + (s[hi]-s[lo])*(pos-float64(lo))
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

func sum(xs []float64) float64 {
	t := 0.0
	for _, x := range xs {
		t += x
	}
	return t
}

func mean(xs []float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	return sum(xs) / float64(len(xs))
}

// ratio is a/b, or 0 when b is 0 (a layer the workload never reached).
func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// peakRSSMB reads the process's resident-set high-water mark.
func peakRSSMB() (float64, error) {
	f, err := os.Open("/proc/self/status")
	if err != nil {
		return 0, err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(sc.Text(), "VmHWM:"); ok {
			kb, err := strconv.ParseFloat(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM %q: %w", rest, err)
			}
			return kb / 1024, nil
		}
	}
	return 0, fmt.Errorf("VmHWM not found in /proc/self/status")
}

// cpuTicks reads the steal and total jiffies of all CPUs from
// /proc/stat: on a virtual machine, steal is the time the hypervisor
// ran other guests while this one wanted to run.
func cpuTicks() (steal, total float64, err error) {
	data, err := os.ReadFile("/proc/stat")
	if err != nil {
		return 0, 0, err
	}
	line, _, _ := strings.Cut(string(data), "\n")
	f := strings.Fields(line)
	if len(f) < 9 || f[0] != "cpu" {
		return 0, 0, fmt.Errorf("unexpected /proc/stat line %q", line)
	}
	for i, s := range f[1:] {
		v, err := strconv.ParseFloat(s, 64)
		if err != nil {
			return 0, 0, fmt.Errorf("parse /proc/stat: %w", err)
		}
		// Fields 9 and 10 (guest time) are already counted in user.
		if i < 8 {
			total += v
		}
		if i == 7 {
			steal = v
		}
	}
	return steal, total, nil
}

// stamp identifies the host and code a result was measured on.
type stamp struct {
	CPU        string `json:"cpu"`
	NProc      int    `json:"nproc"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	Go         string `json:"go"`
	Commit     string `json:"commit"`
	Workload   string `json:"workload"`
	Seed       int64  `json:"seed"`
}

// boundsHost is the host the bounds in BENCHMARK.json were set on. A
// result from another host is still printed, with a warning: the
// bounds say nothing about its noise.
var boundsHost = stamp{CPU: "Intel(R) Xeon(R) Processor", NProc: 2, GOMAXPROCS: 2, Go: "go1.24.0"}

func hostStamp(workload string, seed int64) stamp {
	s := stamp{
		CPU:        "unknown",
		NProc:      runtime.NumCPU(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		Go:         runtime.Version(),
		Commit:     "unknown",
		Workload:   workload,
		Seed:       seed,
	}
	if data, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(data), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				s.CPU = strings.TrimSpace(v)
				break
			}
		}
	}
	// The checkout the benchmark runs in may not be a git repository;
	// then the build carries no revision and the commit stays unknown.
	if bi, ok := debug.ReadBuildInfo(); ok {
		dirty := false
		for _, kv := range bi.Settings {
			switch kv.Key {
			case "vcs.revision":
				s.Commit = kv.Value
			case "vcs.modified":
				dirty = kv.Value == "true"
			}
		}
		if dirty && s.Commit != "unknown" {
			s.Commit += "-dirty"
		}
	}
	return s
}

// hostDiffers names the fields in which s differs from the bounds host.
func (s stamp) hostDiffers() []string {
	var d []string
	if s.CPU != boundsHost.CPU {
		d = append(d, fmt.Sprintf("cpu %q (bounds: %q)", s.CPU, boundsHost.CPU))
	}
	if s.NProc != boundsHost.NProc {
		d = append(d, fmt.Sprintf("nproc %d (bounds: %d)", s.NProc, boundsHost.NProc))
	}
	if s.GOMAXPROCS != boundsHost.GOMAXPROCS {
		d = append(d, fmt.Sprintf("GOMAXPROCS %d (bounds: %d)", s.GOMAXPROCS, boundsHost.GOMAXPROCS))
	}
	if s.Go != boundsHost.Go {
		d = append(d, fmt.Sprintf("go %s (bounds: %s)", s.Go, boundsHost.Go))
	}
	return d
}
