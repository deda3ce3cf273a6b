package main

import (
	"encoding/json"
	"fmt"
	"os"
	"reflect"
	"regexp"
	"sort"
	"testing"
)

// The self-test runs each workload once at a tiny size, untraced and
// traced, from the repository root one level up.

var metricName = regexp.MustCompile(`^[A-Za-z0-9_.-]+$`)

func tinyRun(t *testing.T, workload string, seed uint64, traced bool) resultLine {
	t.Helper()
	res, err := runWorkload(config{workload: workload, seed: seed, seconds: 0.01, traced: traced, root: "..", tiny: true})
	if err != nil {
		t.Fatalf("%s seed %d: %v", workload, seed, err)
	}
	for _, f := range res.failures {
		t.Errorf("%s seed %d: %s", workload, seed, f)
	}
	return res.output(traced)
}

func names(defs []metricDef) []string {
	var out []string
	for _, d := range defs {
		out = append(out, d.name)
	}
	sort.Strings(out)
	return out
}

func keys(m map[string]metricOut) []string {
	var out []string
	for k := range m {
		out = append(out, k)
	}
	sort.Strings(out)
	return out
}

// TestBenchmarkJSONNamesTheMetrics checks that BENCHMARK.json lists
// exactly the metrics the benchmark emits, with the same units, and
// every workload it runs.
func TestBenchmarkJSONNamesTheMetrics(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var spec struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit string } `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &spec); err != nil {
		t.Fatal(err)
	}
	var wl []string
	for _, w := range spec.Workloads {
		wl = append(wl, w.Name)
	}
	if !reflect.DeepEqual(wl, workloadNames) {
		t.Errorf("BENCHMARK.json workloads %v, benchmark runs %v", wl, workloadNames)
	}
	for _, c := range []struct {
		what   string
		listed []struct{ Name, Unit string }
		defs   []metricDef
	}{{"end_to_end", spec.EndToEnd, endToEnd}, {"per_layer", spec.PerLayer, perLayer()}} {
		want := map[string]string{}
		for _, d := range c.defs {
			want[d.name] = d.unit
		}
		got := map[string]string{}
		for _, m := range c.listed {
			got[m.Name] = m.Unit
		}
		if !reflect.DeepEqual(got, want) {
			t.Errorf("BENCHMARK.json %s differs from the emitted metrics:\n got %v\nwant %v", c.what, got, want)
		}
	}
}

// TestWorkloadsTiny runs every workload at a tiny size: every named
// metric is emitted with a valid name, no operation fails, and another
// seed changes the inputs but not the set of metrics.
func TestWorkloadsTiny(t *testing.T) {
	for _, wl := range workloadNames {
		t.Run(wl, func(t *testing.T) {
			for _, traced := range []bool{false, true} {
				defs := endToEnd
				if traced {
					defs = perLayer()
				}
				a := tinyRun(t, wl, 1, traced)
				b := tinyRun(t, wl, 2, traced)
				if got, want := keys(a.Metrics), names(defs); !reflect.DeepEqual(got, want) {
					t.Errorf("traced=%v: emitted %v, want %v", traced, got, want)
				}
				if !reflect.DeepEqual(keys(a.Metrics), keys(b.Metrics)) {
					t.Errorf("traced=%v: seeds 1 and 2 emit different metric sets", traced)
				}
				for name := range a.Metrics {
					if !metricName.MatchString(name) {
						t.Errorf("metric name %q does not match %s", name, metricName)
					}
				}
				if !a.Correct || a.Failed != 0 || a.Attempted < 1 {
					t.Errorf("traced=%v: correct=%v attempted=%d failed=%d", traced, a.Correct, a.Attempted, a.Failed)
				}
				if !traced {
					for _, d := range endToEnd {
						if a.Metrics[d.name].Value <= 0 {
							t.Errorf("end-to-end metric %s = %v, want > 0", d.name, a.Metrics[d.name].Value)
						}
					}
				}
			}
			// paper_quick ignores the seed: its input is the registry at the
			// options GOLDEN.json pins.
			if in1, in2 := inputs(t, wl, 1), inputs(t, wl, 2); in1 == in2 && wl != "paper_quick" {
				t.Errorf("seeds 1 and 2 give the same inputs: %s", in1)
			}
			if in1, again := inputs(t, wl, 1), inputs(t, wl, 1); in1 != again {
				t.Errorf("seed 1 gives different inputs on two setups:\n%s\n%s", in1, again)
			}
		})
	}
}

// inputs renders what a workload's setup generated from the seed: the
// campaign, the link placement, or the job specs.
func inputs(t *testing.T, workload string, seed uint64) string {
	t.Helper()
	e := &env{cfg: config{workload: workload, seed: seed, root: "..", tiny: true}, work: t.TempDir(), rec: newRecorder()}
	w, err := newWorkload(e)
	if err != nil {
		t.Fatal(err)
	}
	defer w.close()
	if err := w.setup(); err != nil {
		t.Fatal(err)
	}
	w.check(newTally())
	switch w := w.(type) {
	case *paperQuick:
		var ids []string
		for _, r := range w.runners {
			ids = append(ids, r.ID)
		}
		return fmt.Sprint(ids)
	case *floorPlan:
		var links []string
		for _, f := range w.floors {
			for _, l := range f.links {
				links = append(links, fmt.Sprint(l.A, l.B))
			}
		}
		return fmt.Sprint(links)
	case *daemonCapture:
		return fmt.Sprint(w.specs)
	}
	t.Fatalf("no inputs for %T", w)
	return ""
}
