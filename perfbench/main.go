// Command perfbench is the repository benchmark. It runs one named
// workload from a seed for a fixed time, checks that the system's
// outputs are correct, and prints one JSON object as the last line of
// standard output:
//
//	{"correct": true, "attempted": 56, "failed": 0, "metrics": {"wall_s": {"value": 10.2, "unit": "s"}, ...}}
//
// An untraced run (-trace 0) reports the end-to-end metrics; a traced run
// (-trace 1) reports the per-layer metrics. The workloads drive the
// system only through its public package APIs:
//
//	paper_quick     every registered experiment, quick mode, through experiments.RunCampaign
//	floor_plan      coexist planning plus a MoveWall obstacle walk on geom.OfficeFloor floors
//	daemon_capture  capture jobs through an in-process serve.Server over loopback HTTP
//
// Every workload runs the sweep pool at width 1, so the multi-core
// speedup of the sweep pool is not measured here. run.sh builds and runs
// it from a checkout; the metric names are listed in BENCHMARK.json.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

func main() {
	os.Exit(run(os.Args[1:]))
}

func run(args []string) int {
	fs := flag.NewFlagSet("perfbench", flag.ContinueOnError)
	workload := fs.String("workload", "", "workload name: "+strings.Join(workloadNames, ", "))
	seed := fs.Uint64("seed", 1, "workload seed: the inputs are a function of it")
	seconds := fs.Float64("seconds", 30, "measured time per run, in seconds")
	traced := fs.Int("trace", 0, "0 = end-to-end metrics, 1 = traced run with per-layer metrics")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *traced != 0 && *traced != 1 {
		fmt.Fprintln(os.Stderr, "perfbench: -trace must be 0 or 1")
		return 2
	}
	if *seconds <= 0 {
		fmt.Fprintln(os.Stderr, "perfbench: -seconds must be positive")
		return 2
	}
	cfg := config{
		workload: *workload,
		seed:     *seed,
		seconds:  *seconds,
		traced:   *traced == 1,
		root:     ".",
	}
	res, err := runWorkload(cfg)
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	for i, msg := range res.failures {
		if i == 20 {
			fmt.Fprintf(os.Stderr, "perfbench: ... %d more failures\n", len(res.failures)-i)
			break
		}
		fmt.Fprintln(os.Stderr, "perfbench: FAIL:", msg)
	}
	prov, err := json.Marshal(map[string]any{"provenance": res.provenance})
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	line, err := json.Marshal(res.output(cfg.traced))
	if err != nil {
		fmt.Fprintln(os.Stderr, "perfbench:", err)
		return 1
	}
	fmt.Println(string(prov))
	fmt.Println(string(line))
	return 0
}

// config is one benchmark invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64
	traced   bool
	root     string // repository root: holds GOLDEN.json; .bench_build/ is written there
	tiny     bool   // run the workload at a tiny size (self-test)
}

// outDir is where runs keep their artifacts: spans, CPU folds, full
// results and the exact-count references.
func (c config) outDir() string { return filepath.Join(c.root, ".bench_build", "perfbench") }

// artifact names a per-run output file.
func (c config) artifact(kind, ext string) string {
	scale := ""
	if c.tiny {
		scale = "-tiny"
	}
	return filepath.Join(c.outDir(), fmt.Sprintf("%s-%s%s-seed%d.%s", kind, c.workload, scale, c.seed, ext))
}

// metricOut is one reported metric.
type metricOut struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// resultLine is the last line the benchmark prints.
type resultLine struct {
	Correct   bool                 `json:"correct"`
	Attempted int                  `json:"attempted"`
	Failed    int                  `json:"failed"`
	Metrics   map[string]metricOut `json:"metrics"`
}
