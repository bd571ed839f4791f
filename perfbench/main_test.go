package main

import (
	"bytes"
	"encoding/json"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"testing"

	"camp/perfbench/work"
)

// campsrv is the server binary, built once from this tree.
var campsrv string

func TestMain(m *testing.M) {
	dir, err := os.MkdirTemp("", "perfbench-test")
	if err != nil {
		panic(err)
	}
	campsrv = filepath.Join(dir, "campsrv")
	cmd := exec.Command("go", "build", "-o", campsrv, "./cmd/campsrv")
	cmd.Dir = ".."
	if out, err := cmd.CombinedOutput(); err != nil {
		os.RemoveAll(dir)
		panic("build campsrv: " + err.Error() + "\n" + string(out))
	}
	code := m.Run()
	os.RemoveAll(dir)
	os.Exit(code)
}

// runBench runs one minimal-size benchmark invocation and returns its exit
// code, its parsed result line and its whole output.
func runBench(t *testing.T, o options) (int, result, string) {
	t.Helper()
	var out bytes.Buffer
	o.campsrv, o.out = campsrv, t.TempDir()
	if o.seconds == 0 {
		o.seconds = 1
	}
	code := execute(o, &out)
	var res result
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("exit %d, last line is no result: %v\n%s", code, err, out.String())
	}
	return code, res, out.String()
}

// printed returns the value of a metric from the lines a run prints above
// its result.
func printed(t *testing.T, out, name string) float64 {
	t.Helper()
	for _, line := range strings.Split(out, "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == name {
			v, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			return v
		}
	}
	t.Fatalf("%s is not printed:\n%s", name, out)
	return 0
}

func metricNames(res result) []string {
	var names []string
	for name := range res.Metrics {
		names = append(names, name)
	}
	slices.Sort(names)
	return names
}

func TestEveryWorkloadRunsClean(t *testing.T) {
	for _, w := range work.Names {
		t.Run(w, func(t *testing.T) {
			code, res, out := runBench(t, options{workload: w, seed: 3})
			if code != 0 || !res.Correct || res.Failed != 0 || res.Attempted == 0 {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			if got, want := metricNames(res), slices.Sorted(slices.Values(endToEnd)); !slices.Equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			if !strings.Contains(out, "error_ratio") {
				t.Errorf("no error_ratio line:\n%s", out)
			}
		})
	}
}

func TestTracedRunReportsEveryLayer(t *testing.T) {
	for _, w := range work.Names {
		t.Run(w, func(t *testing.T) {
			// Three seconds leave the traced half enough gets for a p99,
			// also under the race detector.
			code, res, out := runBench(t, options{workload: w, seed: 3, trace: 1, seconds: 3})
			if code != 0 || !res.Correct {
				t.Fatalf("exit %d, result %+v\n%s", code, res, out)
			}
			if got, want := metricNames(res), slices.Sorted(slices.Values(perLayer)); !slices.Equal(got, want) {
				t.Errorf("metrics %v, want %v", got, want)
			}
			if res.Metrics["core.set_evicting_ns"].Value <= 0 || res.Metrics["proto.parse_ns_per_cmd"].Value <= 0 {
				t.Errorf("replays measured nothing: %+v", res.Metrics)
			}
			if w == "write-journal" && printed(t, out, "kvserver.arena_relocated_bytes_per_user_byte") <= 0 {
				t.Errorf("arena compaction moved nothing:\n%s", out)
			}
		})
	}
}

func TestInjectedFaultsAreDetected(t *testing.T) {
	for _, c := range []struct{ workload, fault string }{
		{"hot-read", "corrupt"},
		{"write-journal", "corrupt"},
		{"write-journal", "lost"},
	} {
		t.Run(c.workload+"/"+c.fault, func(t *testing.T) {
			code, res, out := runBench(t, options{workload: c.workload, seed: 3, inject: c.fault})
			if code == 0 || res.Correct || res.Failed == 0 {
				t.Fatalf("fault went unnoticed: exit %d, result %+v\n%s", code, res, out)
			}
			if !strings.Contains(out, "# FAILED:") {
				t.Errorf("failure not reported:\n%s", out)
			}
		})
	}
}

// BENCHMARK.json declares exactly the workloads and metrics the benchmark
// prints, with the units it prints them in.
func TestBenchmarkJSONMatchesTheCode(t *testing.T) {
	b, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	type named struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	}
	var spec struct {
		Workloads []named `json:"workloads"`
		EndToEnd  []named `json:"end_to_end"`
		PerLayer  []named `json:"per_layer"`
	}
	if err := json.Unmarshal(b, &spec); err != nil {
		t.Fatal(err)
	}
	names := func(ns []named) []string {
		var out []string
		for _, n := range ns {
			out = append(out, n.Name)
		}
		return out
	}
	for _, w := range names(spec.Workloads) {
		if !slices.Contains(work.Names, w) {
			t.Errorf("workload %s is not in the code's %v", w, work.Names)
		}
	}
	if got := names(spec.EndToEnd); !slices.Equal(got, endToEnd) {
		t.Errorf("end_to_end %v, code has %v", got, endToEnd)
	}
	if got := names(spec.PerLayer); !slices.Equal(got, perLayer) {
		t.Errorf("per_layer %v, code has %v", got, perLayer)
	}
	// Units as a traced and an untraced run print them.
	for _, c := range []struct {
		trace int
		decl  []named
	}{{0, spec.EndToEnd}, {1, spec.PerLayer}} {
		_, res, _ := runBench(t, options{workload: "bg-evict", seed: 4, trace: c.trace})
		for _, n := range c.decl {
			if got := res.Metrics[n.Name].Unit; got != n.Unit {
				t.Errorf("%s: unit %q, BENCHMARK.json says %q", n.Name, got, n.Unit)
			}
		}
	}
}
