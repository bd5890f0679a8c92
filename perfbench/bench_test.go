package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"
)

// benchmarkFile is the repository's BENCHMARK.json, as far as the
// self-test reads it.
type benchmarkFile struct {
	Workloads []struct {
		Name string `json:"name"`
		Why  string `json:"why"`
	} `json:"workloads"`
	EndToEnd []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"end_to_end"`
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

// tinyRun runs one workload for one round at a tiny size and returns the
// parsed result and the record line.
func tinyRun(t *testing.T, workload string, trace, workers int) (result, map[string]any) {
	t.Helper()
	var out, errb bytes.Buffer
	args := []string{
		"--workload", workload, "--seed", "7", "--rounds", "1", "--scale", "0.02",
		"--trace", fmt.Sprint(trace), "--workers", fmt.Sprint(workers), "--workdir", t.TempDir(),
	}
	if code := run(args, &out, &errb); code != 0 {
		t.Fatalf("%s trace=%d workers=%d: exit %d\nstdout:\n%s\nstderr:\n%s", workload, trace, workers, code, out.String(), errb.String())
	}
	lines := strings.Split(strings.TrimSpace(out.String()), "\n")
	var res result
	if err := json.Unmarshal([]byte(lines[len(lines)-1]), &res); err != nil {
		t.Fatalf("%s: last line is not the result: %v", workload, err)
	}
	var rec map[string]any
	if err := json.Unmarshal([]byte(strings.TrimPrefix(lines[0], "record ")), &rec); err != nil {
		t.Fatalf("%s: first line is not the record: %v", workload, err)
	}
	return res, rec
}

// TestSpecMatchesBenchmarkFile pins the metric and workload lists the
// program prints to the ones BENCHMARK.json declares.
func TestSpecMatchesBenchmarkFile(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var bf benchmarkFile
	if err := json.Unmarshal(data, &bf); err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, w := range bf.Workloads {
		names = append(names, w.Name)
		if w.Why != workloads[w.Name].why {
			t.Errorf("workload %s: BENCHMARK.json why %q, program %q", w.Name, w.Why, workloads[w.Name].why)
		}
	}
	if got, want := strings.Join(names, ","), strings.Join(workloadNames(), ","); got != want {
		t.Errorf("workloads: BENCHMARK.json %s, program %s", got, want)
	}
	check := func(kind string, file []metricSpec, prog []metricSpec) {
		if len(file) != len(prog) {
			t.Errorf("%s: BENCHMARK.json lists %d metrics, program %d", kind, len(file), len(prog))
			return
		}
		for i := range file {
			if file[i] != prog[i] {
				t.Errorf("%s[%d]: BENCHMARK.json %v, program %v", kind, i, file[i], prog[i])
			}
		}
	}
	var e2e, layers []metricSpec
	for _, m := range bf.EndToEnd {
		e2e = append(e2e, metricSpec{m.Name, m.Unit})
	}
	for _, m := range bf.PerLayer {
		layers = append(layers, metricSpec{m.Name, m.Unit})
	}
	check("end_to_end", e2e, endToEnd)
	check("per_layer", layers, perLayer)
}

// TestWorkloadsTiny runs every workload untraced and traced at a tiny size:
// every metric is present, finite and carries its unit, no verdict is
// wrong, and the verdict digest is the same across two runs and at one
// worker and at nproc workers.
func TestWorkloadsTiny(t *testing.T) {
	nproc := runtime.NumCPU()
	for _, w := range workloadNames() {
		t.Run(w, func(t *testing.T) {
			for trace, specs := range [][]metricSpec{endToEnd, perLayer} {
				res, rec := tinyRun(t, w, trace, nproc)
				if !res.Correct || res.Attempted < 1 {
					t.Errorf("trace=%d: correct=%v attempted=%d (record %v)", trace, res.Correct, res.Attempted, rec)
				}
				if len(res.Metrics) != len(specs) {
					t.Errorf("trace=%d: %d metrics, want %d", trace, len(res.Metrics), len(specs))
				}
				for _, s := range specs {
					m, ok := res.Metrics[s.name]
					switch {
					case !ok:
						t.Errorf("trace=%d: metric %s missing", trace, s.name)
					case m.Unit != s.unit:
						t.Errorf("trace=%d: metric %s unit %q, want %q", trace, s.name, m.Unit, s.unit)
					case math.IsNaN(m.Value) || math.IsInf(m.Value, 0):
						t.Errorf("trace=%d: metric %s = %v", trace, s.name, m.Value)
					}
				}
			}
			_, again := tinyRun(t, w, 0, nproc)
			_, first := tinyRun(t, w, 0, nproc)
			_, one := tinyRun(t, w, 0, 1)
			if again["verdict_digest"] != first["verdict_digest"] {
				t.Errorf("verdict digest differs across runs: %v vs %v", first["verdict_digest"], again["verdict_digest"])
			}
			if one["verdict_digest"] != first["verdict_digest"] {
				t.Errorf("verdict digest differs at 1 and %d workers: %v vs %v", nproc, one["verdict_digest"], first["verdict_digest"])
			}
		})
	}
}

// TestEndsOnWholeCycles checks that a time-bound run stops only once its
// time is spent and its last cycle of inputs is whole, and that a traced
// step always follows its untraced twin.
func TestEndsOnWholeCycles(t *testing.T) {
	for _, trace := range []bool{false, true} {
		tl := newTally(config{seconds: 1, trace: trace}, 3, nil)
		steps := 0
		for !tl.done() {
			tl.meter().wall += 400 * time.Millisecond
			tl.step++
			steps++
		}
		want := 3 // 1.2 s after three inputs, a whole cycle
		if trace {
			want = 6
		}
		if steps != want || tl.input() != 3 {
			t.Errorf("trace=%v: stopped after %d steps (%d inputs), want %d steps (3 inputs)", trace, steps, tl.input(), want)
		}
	}
}

// TestRefusesMoreWorkersThanCPUs checks the load bound.
func TestRefusesMoreWorkersThanCPUs(t *testing.T) {
	var out, errb bytes.Buffer
	args := []string{"--workload", "log-dedupe", "--workers", fmt.Sprint(runtime.NumCPU() + 1)}
	if code := run(args, &out, &errb); code == 0 || out.Len() != 0 {
		t.Fatalf("exit %d, stdout %q: want a refusal without a result", code, out.String())
	}
}
