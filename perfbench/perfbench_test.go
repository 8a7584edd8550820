package main

import (
	"bytes"
	"encoding/json"
	"net"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"testing"
	"time"
)

// TestMain doubles as the benchmark binary: with PERFBENCH_ARGS set,
// the test executable runs the benchmark itself, so the leftover tests
// can watch a real benchmark process from outside.
func TestMain(m *testing.M) {
	if args := os.Getenv("PERFBENCH_ARGS"); args != "" {
		os.Exit(run(strings.Fields(args), os.Stdout, os.Stderr))
	}
	os.Exit(m.Run())
}

type benchmarkFile struct {
	Command    []string `json:"command"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct {
		Name string `json:"name"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name, Unit, Better string
		Bound              float64
	} `json:"end_to_end"`
	PerLayer []struct{ Name, Unit, Better string } `json:"per_layer"`
}

func readBenchmarkFile(t *testing.T) benchmarkFile {
	t.Helper()
	data, err := os.ReadFile(filepath.Join("..", "BENCHMARK.json"))
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	return bf
}

// fixedArgs are the options BENCHMARK.json's command fixes (the serve
// rate and latency limit), so the self-test runs the benchmark as
// BENCHMARK.json declares it.
func fixedArgs(t *testing.T) []string {
	bf := readBenchmarkFile(t)
	for i, a := range bf.Command {
		if strings.HasSuffix(a, "run.sh") {
			return bf.Command[i+1:]
		}
	}
	t.Fatalf("command %v does not run run.sh", bf.Command)
	return nil
}

// TestBenchmarkFileMirrorsProgram: BENCHMARK.json declares exactly the
// workloads and metrics the program prints.
func TestBenchmarkFileMirrorsProgram(t *testing.T) {
	bf := readBenchmarkFile(t)
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
	}
	var want []string
	for n := range workloads {
		want = append(want, n)
	}
	sort.Strings(names)
	sort.Strings(want)
	if strings.Join(names, ",") != strings.Join(want, ",") {
		t.Errorf("BENCHMARK.json workloads %v, program has %v", names, want)
	}
	if len(bf.EndToEnd) != len(endToEnd) {
		t.Fatalf("BENCHMARK.json has %d end_to_end metrics, program %d", len(bf.EndToEnd), len(endToEnd))
	}
	for i, m := range endToEnd {
		got := bf.EndToEnd[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("end_to_end[%d] = %s/%s/%s, program %s/%s/%s", i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
	}
	if len(bf.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d per_layer metrics, program %d", len(bf.PerLayer), len(perLayer))
	}
	for i, m := range perLayer {
		got := bf.PerLayer[i]
		if got.Name != m.name || got.Unit != m.unit || got.Better != m.better {
			t.Errorf("per_layer[%d] = %s/%s/%s, program %s/%s/%s", i, got.Name, got.Unit, got.Better, m.name, m.unit, m.better)
		}
	}
}

// lastLine decodes the result line a run printed last.
func lastLine(t *testing.T, out string) result {
	t.Helper()
	lines := strings.Split(strings.TrimSpace(out), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("last line %q: %v", lines[len(lines)-1], err)
	}
	return res
}

// TestShortRunPrintsEveryMetric runs every workload at tiny sizes,
// untraced and traced, and checks the verdict and that each declared
// metric is printed with its unit.
func TestShortRunPrintsEveryMetric(t *testing.T) {
	fixed := fixedArgs(t)
	t.Chdir(t.TempDir()) // the traced run writes its trace file here
	for name := range workloads {
		for _, trace := range []string{"0", "1"} {
			t.Run(name+"/trace"+trace, func(t *testing.T) {
				args := append(append([]string(nil), fixed...), "--workload", name, "--seed", "7", "--seconds", "1", "--trace", trace, "--short")
				var stdout, stderr bytes.Buffer
				if code := run(args, &stdout, &stderr); code != 0 {
					t.Fatalf("exit %d; stderr:\n%s", code, stderr.String())
				}
				res := lastLine(t, stdout.String())
				if !res.Correct || res.Attempted < 1 || res.Failed != 0 {
					t.Fatalf("verdict correct=%v attempted=%d failed=%d; stderr:\n%s", res.Correct, res.Attempted, res.Failed, stderr.String())
				}
				want := endToEnd
				if trace == "1" {
					want = perLayer
				}
				if len(res.Metrics) != len(want) {
					t.Errorf("%d metrics printed, want %d", len(res.Metrics), len(want))
				}
				for _, m := range want {
					got, ok := res.Metrics[m.name]
					if !ok || got.Unit != m.unit {
						t.Errorf("metric %s: printed %v (present %v), want unit %s", m.name, got, ok, m.unit)
					}
				}
				if trace == "0" {
					for _, m := range endToEnd {
						if v := res.Metrics[m.name].Value; !(v > 0) {
							t.Errorf("end-to-end %s = %v, want > 0", m.name, v)
						}
					}
				} else if _, err := os.Stat(filepath.Join(".bench_build", "perfbench", "traces", name+"-seed7.json")); err != nil {
					t.Errorf("trace file: %v", err)
				}
			})
		}
	}
}

// TestCorruptedExpectationFails: a wrong expected value must show up
// in fail_ratio, on each workload's own checking path.
func TestCorruptedExpectationFails(t *testing.T) {
	o := options{seed: 3, seconds: 1, serveRate: 50, serveLimitMS: 1000, short: true}
	for name, def := range workloads {
		t.Run(name, func(t *testing.T) {
			w, err := def.setup(o)
			if err != nil {
				t.Fatal(err)
			}
			defer w.close()
			switch w := w.(type) {
			case *programWorkload:
				for i := range w.progs[0].inputs {
					w.progs[0].inputs[i].want += 1
				}
			case *serveWorkload:
				for i := range w.reqs {
					w.reqs[i].want = "wrong\n"
				}
			case *haloWorkload:
				for i := range w.refs {
					w.refs[i].Cells[0] += 1
				}
			default:
				t.Fatalf("no corruption for %T", w)
			}
			p := w.measure(time.Now().Add(500*time.Millisecond), nil)
			if failRatio := ratio(float64(p.failed), float64(p.attempted)); !(failRatio > 0) {
				t.Fatalf("fail_ratio %v (attempted %d, failed %d): corrupted expectation not counted", failRatio, p.attempted, p.failed)
			}
			if len(p.errs) == 0 {
				t.Error("no failure reported")
			}
		})
	}
}

// lockedBuffer collects a child's stderr while the test polls it.
type lockedBuffer struct {
	mu  sync.Mutex
	buf bytes.Buffer
}

func (b *lockedBuffer) Write(p []byte) (int, error) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.Write(p)
}

func (b *lockedBuffer) String() string {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.buf.String()
}

// startBenchmark starts the benchmark as its own process group and
// waits until it prints the address it serves on.
func startBenchmark(t *testing.T, args []string) (*exec.Cmd, *lockedBuffer, string) {
	t.Helper()
	exe, err := os.Executable()
	if err != nil {
		t.Fatal(err)
	}
	cmd := exec.Command(exe)
	cmd.Dir = t.TempDir()
	cmd.Env = append(os.Environ(), "PERFBENCH_ARGS="+strings.Join(args, " "))
	cmd.SysProcAttr = &syscall.SysProcAttr{Setpgid: true}
	stdout, stderr := &lockedBuffer{}, &lockedBuffer{}
	cmd.Stdout, cmd.Stderr = stdout, stderr
	if err := cmd.Start(); err != nil {
		t.Fatal(err)
	}
	const prefix = "perfbench: serve listening on "
	for deadline := time.Now().Add(60 * time.Second); time.Now().Before(deadline); time.Sleep(10 * time.Millisecond) {
		for _, line := range strings.Split(stderr.String(), "\n") {
			if a, ok := strings.CutPrefix(line, prefix); ok {
				return cmd, stdout, a
			}
		}
	}
	_ = cmd.Process.Kill()
	_ = cmd.Wait()
	t.Fatalf("benchmark printed no serve address within 60s; stderr:\n%s", stderr.String())
	return nil, nil, ""
}

// assertNothingLeft checks that no process of the benchmark's process
// group survives it and that nothing listens on its serve address.
func assertNothingLeft(t *testing.T, pgid int, addr string) {
	t.Helper()
	entries, err := os.ReadDir("/proc")
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		pid, err := strconv.Atoi(e.Name())
		if err != nil {
			continue
		}
		stat, err := os.ReadFile(filepath.Join("/proc", e.Name(), "stat"))
		if err != nil {
			continue // exited meanwhile
		}
		// Fields after the parenthesised command: state ppid pgrp ...
		rest := string(stat[bytes.LastIndexByte(stat, ')')+2:])
		f := strings.Fields(rest)
		if len(f) > 2 && f[2] == strconv.Itoa(pgid) {
			t.Errorf("process %d of the benchmark's group is still running (%s)", pid, f[0])
		}
	}
	if c, err := net.DialTimeout("tcp", addr, time.Second); err == nil {
		c.Close()
		t.Errorf("something still listens on the benchmark's serve address %s", addr)
	}
}

// TestNothingLeftBehind: after a benchmark run ends, normally or
// killed mid-run, no process of it remains and its listening socket
// is gone.
func TestNothingLeftBehind(t *testing.T) {
	args := append(fixedArgs(t), "--workload", "serve-mix", "--seed", "5", "--seconds", "1", "--trace", "0", "--short")
	t.Run("completed", func(t *testing.T) {
		cmd, stdout, addr := startBenchmark(t, args)
		if err := cmd.Wait(); err != nil {
			t.Fatalf("benchmark: %v", err)
		}
		if res := lastLine(t, stdout.String()); !res.Correct {
			t.Errorf("verdict not correct: %+v", res)
		}
		assertNothingLeft(t, cmd.Process.Pid, addr)
	})
	t.Run("killed", func(t *testing.T) {
		cmd, _, addr := startBenchmark(t, args)
		_ = cmd.Process.Kill()
		_ = cmd.Wait()
		assertNothingLeft(t, cmd.Process.Pid, addr)
	})
}
