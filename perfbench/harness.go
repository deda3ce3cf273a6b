package main

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"
	"io/fs"
	"math"
	"math/rand/v2"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"runtime/metrics"
	"runtime/pprof"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
	"time"

	"repro/internal/par"
)

// minPasses is the fewest timed passes a run makes, so a traced run has
// at least one untraced and one traced pass.
const minPasses = 2

// workload is one benchmark workload.
type workload interface {
	// setup builds the workload's state. It runs once, first in the
	// process, so it also pays for process-wide state built lazily on
	// first use (the shared antenna LUTs among it) and warms that state
	// for every pass: work moved into such caches shows in setup_s.
	setup() error
	// check computes the reference outputs the passes are checked
	// against, once, after setup and outside any timing.
	check(t *tally)
	// prepare readies the next pass, outside its timing.
	prepare() error
	// pass runs one timed pass. Every pass does the same work.
	pass(t *tally)
	// layers adds the per-layer metrics measured in traced passes.
	layers(m map[string]float64)
	// close releases what setup built.
	close()
}

// env is what a workload gets from the harness.
type env struct {
	cfg  config
	work string // scratch directory of this run, removed at exit
	rec  *recorder
}

// rng returns the input generator for one stream of the run's seed. The
// inputs depend only on the seed, never on repository code.
func (e *env) rng(stream uint64) *rand.Rand {
	return rand.New(rand.NewPCG(e.cfg.seed, stream))
}

// tally collects one pass's operations. Its methods are safe for
// concurrent use.
type tally struct {
	mu        sync.Mutex
	attempted int
	failed    int
	ops       int           // operations counted by ops_per_s
	busy      time.Duration // time those operations took, when not the whole pass
	lat       []float64     // per-operation latency in seconds (op_p50_s)
	counts    map[string]int64
	failures  []string
}

func newTally() *tally { return &tally{counts: map[string]int64{}} }

func (t *tally) attempt(n int) {
	t.mu.Lock()
	t.attempted += n
	t.mu.Unlock()
}

func (t *tally) fail(format string, args ...any) {
	t.mu.Lock()
	t.failed++
	t.failures = append(t.failures, fmt.Sprintf(format, args...))
	t.mu.Unlock()
}

// op records completed operations and, when lat >= 0, one latency.
func (t *tally) op(n int, lat float64) {
	t.mu.Lock()
	t.ops += n
	if lat >= 0 {
		t.lat = append(t.lat, lat)
	}
	t.mu.Unlock()
}

// opTime adds the time counted operations took, for a workload whose
// ops_per_s covers only part of a pass.
func (t *tally) opTime(d time.Duration) {
	t.mu.Lock()
	t.busy += d
	t.mu.Unlock()
}

// count adds to a deterministic work count of this pass.
func (t *tally) count(name string, n int64) {
	t.mu.Lock()
	t.counts[name] += n
	t.mu.Unlock()
}

// runResult is everything one run measured.
type runResult struct {
	attempted, failed int
	failures          []string
	e2e               map[string]float64
	layer             map[string]float64
	provenance        map[string]any
}

// add counts a tally's operations and failures into the run's.
func (r *runResult) add(t *tally) {
	r.attempted += t.attempted
	r.failed += t.failed
	r.failures = append(r.failures, t.failures...)
}

// fail records a failure the harness itself found.
func (r *runResult) fail(msg string) {
	r.failed++
	r.failures = append(r.failures, msg)
}

func (r *runResult) output(traced bool) resultLine {
	defs, vals := endToEnd, r.e2e
	if traced {
		defs, vals = perLayer(), r.layer
	}
	out := resultLine{
		Correct:   r.failed == 0,
		Attempted: r.attempted,
		Failed:    r.failed,
		Metrics:   make(map[string]metricOut, len(defs)),
	}
	for _, d := range defs {
		v := vals[d.name]
		if math.IsNaN(v) || math.IsInf(v, 0) {
			v = 0
		}
		out.Metrics[d.name] = metricOut{Value: v, Unit: d.unit}
	}
	if out.Attempted < 1 {
		out.Attempted = 1
		out.Failed = 1
		out.Correct = false
	}
	return out
}

func newWorkload(e *env) (workload, error) {
	switch e.cfg.workload {
	case "paper_quick":
		return &paperQuick{env: e}, nil
	case "floor_plan":
		return &floorPlan{env: e}, nil
	case "daemon_capture":
		return &daemonCapture{env: e}, nil
	}
	return nil, fmt.Errorf("unknown workload %q (want one of %s)", e.cfg.workload, strings.Join(workloadNames, ", "))
}

// runWorkload sets the workload up, computes its reference outputs,
// then runs timed passes for about cfg.seconds (at least minPasses). In
// a traced run every second pass is traced: the recorder keeps spans,
// the CPU profiler runs, and the per-layer timings come from those
// passes.
func runWorkload(cfg config) (*runResult, error) {
	if _, err := os.Stat(filepath.Join(cfg.root, "GOLDEN.json")); err != nil {
		return nil, fmt.Errorf("%s is not a repository checkout: %w", cfg.root, err)
	}
	if err := os.MkdirAll(cfg.outDir(), 0o755); err != nil {
		return nil, err
	}
	work, err := makeWorkDir(cfg.outDir())
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(work)
	prevWorkers := par.SetWorkers(1)
	defer par.SetWorkers(prevWorkers)

	e := &env{cfg: cfg, work: work, rec: newRecorder()}
	w, err := newWorkload(e)
	if err != nil {
		return nil, err
	}
	defer w.close()

	t0 := time.Now()
	if err := w.setup(); err != nil {
		return nil, fmt.Errorf("%s setup: %w", cfg.workload, err)
	}
	setup := time.Since(t0).Seconds()
	res := &runResult{e2e: map[string]float64{}, layer: map[string]float64{}}
	ct := newTally()
	w.check(ct)
	res.add(ct)

	ps, err := measure(cfg, e.rec, w, res)
	if err != nil {
		return nil, err
	}
	res.e2e["setup_s"] = setup
	res.e2e["wall_s"] = median(ps.walls)
	res.e2e["cpu_s"] = median(ps.cpus)
	res.e2e["alloc_mb"] = median(ps.allocs)
	res.e2e["heap_peak_mb"] = median(ps.peaks)
	res.e2e["ops_per_s"] = float64(ps.ops) / ps.opWall
	res.e2e["op_p50_s"] = quantile(ps.lat, 0.5)
	res.e2e["op_p90_s"] = quantile(ps.lat, 0.9)

	w.layers(res.layer)
	for name, v := range ps.counts {
		res.layer[name] = float64(v)
	}
	var cpuTotal int64
	for _, v := range ps.cpuFold {
		cpuTotal += v
	}
	for l, v := range ps.cpuFold {
		res.layer["cpu."+l] = float64(v) / float64(cpuTotal)
	}
	n := float64(len(ps.walls))
	res.layer["gc.cycles"] = ps.gcCycles / n
	res.layer["gc.pause_s"] = ps.gcPause / n
	if len(ps.tracedWalls) > 0 && len(ps.plainWalls) > 0 {
		res.layer["trace.overhead_s"] = median(ps.tracedWalls) - median(ps.plainWalls)
	}

	digest, err := sourceDigest(cfg.root)
	if err != nil {
		return nil, err
	}
	if d, err := checkCountsAcrossRuns(cfg, digest, ps.counts); err != nil {
		return nil, err
	} else if d != "" {
		res.fail("work count drifted from an earlier run of the same code and seed: " + d)
	}
	res.layer["fail_frac"] = float64(res.failed) / float64(max(res.attempted, 1))
	res.provenance = provenance(cfg, digest, len(ps.walls), len(ps.tracedWalls))
	res.provenance["op_latency_samples"] = len(ps.lat)

	kind := "result"
	if cfg.traced {
		kind = "result-traced"
		if err := e.rec.writeSpans(cfg.artifact("spans", "tsv")); err != nil {
			return nil, err
		}
		if err := writeFold(cfg.artifact("cpu", "txt"), ps.cpuFold, ps.cpuOther, cpuTotal); err != nil {
			return nil, err
		}
	}
	return res, writeJSON(cfg.artifact(kind, "json"), map[string]any{
		"provenance": res.provenance,
		"attempted":  res.attempted,
		"failed":     res.failed,
		"failures":   res.failures,
		"end_to_end": res.e2e,
		"per_layer":  res.layer,
		"pass_walls": ps.walls,
		"setup_s":    setup,
	})
}

// passes is what the timed passes measured, one entry per pass.
type passes struct {
	walls, cpus, allocs, peaks []float64
	plainWalls, tracedWalls    []float64
	lat                        []float64 // every operation's latency
	ops                        int
	opWall                     float64
	gcCycles, gcPause          float64
	counts                     map[string]int64 // the first pass's work counts
	cpuFold, cpuOther          map[string]int64 // traced CPU time by layer / by "other" function
}

// measure runs the timed passes, adding their operations to res.
func measure(cfg config, rec *recorder, w workload, res *runResult) (*passes, error) {
	ps := &passes{cpuFold: map[string]int64{}, cpuOther: map[string]int64{}}
	hs := startHeapSampler()
	defer hs.close()
	start := time.Now()
	// A pass starts while at least half of one more fits in cfg.seconds,
	// so a run lasts cfg.seconds give or take half a pass.
	for p := 0; p < minPasses || time.Since(start).Seconds()+ps.walls[p-1]/2 < cfg.seconds; p++ {
		traced := cfg.traced && p%2 == 1
		if err := w.prepare(); err != nil {
			return nil, fmt.Errorf("pass %d: %w", p, err)
		}
		// Every pass starts from a collected heap, so its heap peak and GC
		// counts do not depend on garbage earlier passes left.
		runtime.GC()
		t := newTally()
		var prof bytes.Buffer
		if traced {
			rec.on.Store(true)
			if err := pprof.StartCPUProfile(&prof); err != nil {
				return nil, fmt.Errorf("cpu profile: %w", err)
			}
		}
		var ms0, ms1 runtime.MemStats
		runtime.ReadMemStats(&ms0)
		cpu0 := cpuSeconds()
		hs.reset()
		t0 := time.Now()
		w.pass(t)
		wall := time.Since(t0).Seconds()
		cpu := cpuSeconds() - cpu0
		peak := hs.peak()
		runtime.ReadMemStats(&ms1)
		if traced {
			pprof.StopCPUProfile()
			rec.on.Store(false)
			if err := foldProfile(prof.Bytes(), ps.cpuFold, ps.cpuOther); err != nil {
				t.fail("%v", err)
			}
			ps.tracedWalls = append(ps.tracedWalls, wall)
		} else {
			ps.plainWalls = append(ps.plainWalls, wall)
		}
		ps.walls = append(ps.walls, wall)
		ps.cpus = append(ps.cpus, cpu)
		ps.allocs = append(ps.allocs, float64(ms1.TotalAlloc-ms0.TotalAlloc)/1e6)
		ps.peaks = append(ps.peaks, float64(peak)/1e6)
		ps.gcCycles += float64(ms1.NumGC - ms0.NumGC)
		ps.gcPause += float64(ms1.PauseTotalNs-ms0.PauseTotalNs) / 1e9
		ps.lat = append(ps.lat, t.lat...)
		ps.ops += t.ops
		if t.busy > 0 {
			ps.opWall += t.busy.Seconds()
		} else {
			ps.opWall += wall
		}
		res.add(t)
		// Work counts are deterministic: every pass repeats the same work,
		// so a count that differs between passes is a behaviour change.
		if ps.counts == nil {
			ps.counts = t.counts
		} else if d := countDrift(ps.counts, t.counts); d != "" {
			res.fail(fmt.Sprintf("pass %d: work count drifted from pass 0: %s", p, d))
		}
	}
	return ps, nil
}

// makeWorkDir creates the run's scratch directory. Its name has a fixed
// length because the daemon's checkpoints record capture paths, and the
// checkpoint byte counts must not depend on the directory name.
func makeWorkDir(parent string) (string, error) {
	for {
		dir := filepath.Join(parent, fmt.Sprintf("run-%010d", rand.Uint32()))
		err := os.Mkdir(dir, 0o755)
		if !os.IsExist(err) {
			return dir, err
		}
	}
}

// countDrift describes the first difference between two count sets.
func countDrift(want, got map[string]int64) string {
	names := make([]string, 0, len(want)+len(got))
	for k := range want {
		names = append(names, k)
	}
	for k := range got {
		if _, ok := want[k]; !ok {
			names = append(names, k)
		}
	}
	sort.Strings(names)
	for _, k := range names {
		if want[k] != got[k] {
			return fmt.Sprintf("%s = %d, want %d", k, got[k], want[k])
		}
	}
	return ""
}

// checkCountsAcrossRuns compares a run's per-pass work counts with those
// an earlier run of the same sources, workload, scale and seed recorded,
// or records them when this is the first such run.
func checkCountsAcrossRuns(cfg config, digest string, counts map[string]int64) (string, error) {
	dir := filepath.Join(cfg.outDir(), "counts")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", err
	}
	scale := ""
	if cfg.tiny {
		scale = "-tiny"
	}
	path := filepath.Join(dir, fmt.Sprintf("%s%s-seed%d-%s.json", cfg.workload, scale, cfg.seed, digest[:16]))
	data, err := os.ReadFile(path)
	if os.IsNotExist(err) {
		return "", writeJSON(path, counts)
	}
	if err != nil {
		return "", err
	}
	var want map[string]int64
	if err := json.Unmarshal(data, &want); err != nil {
		return "", fmt.Errorf("%s: %w", path, err)
	}
	return countDrift(want, counts), nil
}

// sourceDigest hashes the repository's Go sources and module files, so
// results and count references name the code they measured even in a
// checkout without version control.
func sourceDigest(root string) (string, error) {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		fmt.Fprintf(h, "%s\x00", filepath.ToSlash(rel))
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "", err
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}

func provenance(cfg config, digest string, passes, tracedPasses int) map[string]any {
	commit, modified := "unknown", ""
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				commit = s.Value
			case "vcs.modified":
				modified = s.Value
			}
		}
	}
	host, _ := os.Hostname()
	return map[string]any{
		"workload":      cfg.workload,
		"seed":          cfg.seed,
		"seconds":       cfg.seconds,
		"traced":        cfg.traced,
		"tiny":          cfg.tiny,
		"passes":        passes,
		"traced_passes": tracedPasses,
		"sweep_workers": par.Workers(),
		"ncpu":          runtime.NumCPU(),
		"gomaxprocs":    runtime.GOMAXPROCS(0),
		"go":            runtime.Version(),
		"goos_goarch":   runtime.GOOS + "/" + runtime.GOARCH,
		"host":          host,
		"commit":        commit,
		"vcs_modified":  modified,
		"source_sha256": digest,
	}
}

func writeJSON(path string, v any) error {
	data, err := json.MarshalIndent(v, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// writeFold writes the traced passes' CPU time by layer, largest first,
// then the leaf functions that make up most of "other".
func writeFold(path string, fold, other map[string]int64, total int64) error {
	var b strings.Builder
	table := func(header string, m map[string]int64, limit int) {
		keys := make([]string, 0, len(m))
		for k := range m {
			keys = append(keys, k)
		}
		sort.Slice(keys, func(i, j int) bool { return m[keys[i]] > m[keys[j]] })
		fmt.Fprintf(&b, "# %s\tcpu_ms\tshare\n", header)
		for i, k := range keys {
			if i == limit {
				break
			}
			fmt.Fprintf(&b, "%s\t%.1f\t%.4f\n", k, float64(m[k])/1e6, float64(m[k])/float64(max(total, 1)))
		}
	}
	table("layer", fold, len(fold))
	table("leaf function in other", other, 20)
	return os.WriteFile(path, []byte(b.String()), 0o644)
}

func median(xs []float64) float64 { return quantile(xs, 0.5) }

// quantile returns the q-quantile of xs, interpolating between the two
// nearest ranks.
func quantile(xs []float64, q float64) float64 {
	if len(xs) == 0 {
		return 0
	}
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	pos := q * float64(len(s)-1)
	i := int(pos)
	if i+1 >= len(s) {
		return s[len(s)-1]
	}
	return s[i] + (pos-float64(i))*(s[i+1]-s[i])
}

// cpuSeconds is the process's user plus system CPU time.
func cpuSeconds() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	tv := func(t syscall.Timeval) float64 { return float64(t.Sec) + float64(t.Usec)/1e6 }
	return tv(ru.Utime) + tv(ru.Stime)
}

// heapSampler tracks the peak live heap (the bytes the last GC cycle
// marked live) between resets by sampling runtime/metrics every few
// milliseconds. The live heap, unlike the allocated heap, does not
// depend on where in its cycle the GC happens to be sampled;
// heap_peak_mb is the median over the timed passes of each pass's peak.
type heapSampler struct {
	max  atomic.Uint64
	stop chan struct{}
	done chan struct{}
}

const heapMetric = "/gc/heap/live:bytes"

func readHeap() uint64 {
	s := []metrics.Sample{{Name: heapMetric}}
	metrics.Read(s)
	if s[0].Value.Kind() != metrics.KindUint64 {
		return 0
	}
	return s[0].Value.Uint64()
}

func startHeapSampler() *heapSampler {
	h := &heapSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(h.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			select {
			case <-h.stop:
				return
			case <-tick.C:
				h.observe()
			}
		}
	}()
	return h
}

func (h *heapSampler) observe() {
	v := readHeap()
	for {
		old := h.max.Load()
		if v <= old || h.max.CompareAndSwap(old, v) {
			return
		}
	}
}

func (h *heapSampler) reset() { h.max.Store(readHeap()) }

func (h *heapSampler) peak() uint64 {
	h.observe()
	return h.max.Load()
}

func (h *heapSampler) close() {
	select {
	case <-h.stop:
	default:
		close(h.stop)
	}
	<-h.done
}

// recorder times calls into the system's layers during traced passes:
// per-layer call counts and total time, plus one span per call (kept in
// memory up to maxSpans and written out when the run ends). When off,
// begin returns the zero start and end does nothing, so untraced passes
// pay one atomic load per call site.
type recorder struct {
	on     atomic.Bool
	origin time.Time
	nextID atomic.Uint64

	mu      sync.Mutex
	names   []string
	ids     map[string]int
	calls   []int64
	total   []time.Duration
	spans   []span
	dropped int
}

// span is one timed call: its layer, the span that caused it (0 for
// none), and the request (trace) it belongs to.
type span struct {
	id, parent, trace uint64
	layer             int
	start, end        time.Duration // since the recorder's origin
}

// spanStart is an open span; the zero value means tracing was off.
type spanStart struct {
	id uint64
	t0 time.Time
}

const maxSpans = 200_000

func newRecorder() *recorder {
	return &recorder{origin: time.Now(), ids: map[string]int{}}
}

// layer returns the id of a named layer, registering it on first use.
func (r *recorder) layer(name string) int {
	r.mu.Lock()
	defer r.mu.Unlock()
	if id, ok := r.ids[name]; ok {
		return id
	}
	r.ids[name] = len(r.names)
	r.names = append(r.names, name)
	r.calls = append(r.calls, 0)
	r.total = append(r.total, 0)
	return len(r.names) - 1
}

func (r *recorder) begin() spanStart {
	if !r.on.Load() {
		return spanStart{}
	}
	return spanStart{id: r.nextID.Add(1), t0: time.Now()}
}

// end closes a span opened by begin and returns its duration (zero when
// tracing was off).
func (r *recorder) end(layer int, s spanStart, trace, parent uint64) time.Duration {
	if s.id == 0 {
		return 0
	}
	t1 := time.Now()
	d := t1.Sub(s.t0)
	r.mu.Lock()
	r.calls[layer]++
	r.total[layer] += d
	if len(r.spans) < maxSpans {
		r.spans = append(r.spans, span{id: s.id, parent: parent, trace: trace, layer: layer,
			start: s.t0.Sub(r.origin), end: t1.Sub(r.origin)})
	} else {
		r.dropped++
	}
	r.mu.Unlock()
	return d
}

// mean returns a layer's mean time per traced call in the given unit.
func (r *recorder) mean(layer int, unit time.Duration) float64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	if r.calls[layer] == 0 {
		return 0
	}
	return float64(r.total[layer]) / float64(r.calls[layer]) / float64(unit)
}

// writeSpans writes the kept spans as tab-separated rows.
func (r *recorder) writeSpans(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	r.mu.Lock()
	fmt.Fprintf(w, "# spans kept %d, dropped %d\n# id\tparent\ttrace\tlayer\tstart_us\tdur_us\n", len(r.spans), r.dropped)
	for _, s := range r.spans {
		fmt.Fprintf(w, "%d\t%d\t%d\t%s\t%.3f\t%.3f\n", s.id, s.parent, s.trace, r.names[s.layer],
			float64(s.start)/1e3, float64(s.end-s.start)/1e3)
	}
	r.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
