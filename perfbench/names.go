package main

import (
	"fmt"
	"strings"

	"repro/internal/experiments"
)

// The metric names are the benchmark's contract: later changes claim
// their gains against them, and BENCHMARK.json lists the same set.

var workloadNames = []string{"paper_quick", "floor_plan", "daemon_capture"}

type metricDef struct{ name, unit string }

// endToEnd are the metrics an untraced run reports on every workload.
// An operation is an experiment on paper_quick, a predicted coupling
// (ops_per_s, over the time spent planning) or one obstacle-walk
// re-plan (op_p50_s, op_p90_s) on floor_plan, and a job on
// daemon_capture. The latency percentiles are taken over every
// operation of the run; the result file states how many.
var endToEnd = []metricDef{
	{"setup_s", "s"},
	{"wall_s", "s"},
	{"cpu_s", "s"},
	{"alloc_mb", "MB"},
	{"heap_peak_mb", "MB"},
	{"ops_per_s", "1/s"},
	{"op_p50_s", "s"},
	{"op_p90_s", "s"},
}

// floorSizes are the office floors floor_plan plans, in rooms.
var floorSizes = []int{1, 16, 64}

// cpuLayers are the repro/internal packages the traced run's CPU
// profile is folded into; cpu.runtime and cpu.other complete the sum.
var cpuLayers = []string{
	"sim", "rf", "antenna", "geom", "mac", "wigig", "wihd", "transport", "phy",
	"sniffer", "trace", "coexist", "serve", "experiments", "recio", "vfs", "stats",
}

// vfsKinds classify the daemon's durable files by what writes them.
var vfsKinds = []string{"ckpt", "capture", "job"}

// floorLayer are the floor_plan per-layer metrics, each reported once
// per floor size with an .r<rooms> suffix.
var floorLayer = []metricDef{
	{"coexist.analyze.ms", "ms"},
	{"coexist.assign.ms", "ms"},
	{"geom.move_wall.us", "us"},
	{"geom.move_wall.calls", "count"},
	{"rf.pair_affected.us", "us"},
	{"rf.pair_affected.calls", "count"},
	{"rf.pair_affected.true_frac", "frac"},
	{"rf.trace.us", "us"},
	{"rf.trace.calls", "count"},
	{"rf.trace.paths", "count"},
	{"rf.trace.empty_frac", "frac"},
	{"rf.trace_naive.us", "us"},
	{"rf.index_build.ms", "ms"},
}

func floorName(base string, rooms int) string { return fmt.Sprintf("%s.r%d", base, rooms) }

// perLayer lists every per-layer metric a traced run reports, on every
// workload; a layer a workload does not call reports zero.
func perLayer() []metricDef {
	var defs []metricDef
	for _, r := range experiments.All() {
		defs = append(defs, metricDef{"experiments." + r.ID + ".wall_s", "s"})
	}
	for _, l := range cpuLayers {
		defs = append(defs, metricDef{"cpu." + l, "frac"})
	}
	defs = append(defs,
		metricDef{"cpu.runtime", "frac"},
		metricDef{"cpu.other", "frac"},
		metricDef{"gc.cycles", "count"},
		metricDef{"gc.pause_s", "s"},
		metricDef{"trace.overhead_s", "s"},
		metricDef{"fail_frac", "frac"},
	)
	for _, n := range floorSizes {
		for _, d := range floorLayer {
			defs = append(defs, metricDef{floorName(d.name, n), d.unit})
		}
	}
	defs = append(defs,
		metricDef{"serve.submit.ms", "ms"},
		metricDef{"serve.poll.ms", "ms"},
		metricDef{"serve.report.ms", "ms"},
		metricDef{"serve.queue_wait_s", "s"},
		metricDef{"serve.run_s", "s"},
	)
	for _, k := range vfsKinds {
		defs = append(defs,
			metricDef{"vfs." + k + ".writes", "count"},
			metricDef{"vfs." + k + ".bytes", "B"},
			metricDef{"vfs." + k + ".syncs", "count"},
			metricDef{"vfs." + k + ".sync_ms", "ms"},
		)
	}
	defs = append(defs,
		metricDef{"vfs.syncdir.calls", "count"},
		metricDef{"vfs.syncdir.ms", "ms"},
		metricDef{"vfs.rename.calls", "count"},
		metricDef{"sniffer.read.records", "count"},
		metricDef{"sniffer.read.us_per_krec", "us"},
		metricDef{"trace.meters.us_per_krec", "us"},
	)
	return defs
}

// exact reports whether a per-layer metric is a deterministic work count
// that must repeat exactly for the same code and seed. vfs.job.bytes is
// not: job.json records the job's creation time, whose text length
// varies.
func exact(name string) bool {
	switch {
	case name == "vfs.job.bytes":
		return false
	case strings.Contains(name, ".calls"),
		strings.HasPrefix(name, "rf.trace.paths"),
		strings.HasPrefix(name, "vfs.") && (strings.HasSuffix(name, ".writes") || strings.HasSuffix(name, ".bytes") || strings.HasSuffix(name, ".syncs")),
		name == "sniffer.read.records":
		return true
	}
	return false
}
