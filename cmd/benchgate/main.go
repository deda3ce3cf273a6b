// Command benchgate compares the allocation footprint of a benchmark run
// against the committed snapshot BENCH_campaign.json, with per-benchmark
// tolerances. It is the allocation half of the regression gating story:
// goldencheck pins the campaign's outputs, benchgate pins what the hot
// paths allocate producing them, so a change that quietly reintroduces
// per-event garbage fails CI the same way metric drift does.
//
// Usage:
//
//	go test -run '^$' -bench '^Benchmark' -benchmem -benchtime 1x . | tee bench.out
//	benchgate -baseline BENCH_campaign.json -bench bench.out           # gate (exit 1 on regression)
//	benchgate -baseline BENCH_campaign.json -bench bench.out -update   # refresh the snapshot
//
// By default only allocs/op and B/op are gated — wall time is too noisy
// for shared CI runners, and -benchtime 1x makes the smoke fast while
// leaving the per-op allocation counts representative (they are averages
// over the run either way). A benchmark is a regression when it exceeds
// the baseline by both the relative tolerance and a small absolute slack
// (tiny benchmarks jitter by a handful of allocations).
//
// With -ns, wall time joins the gate for the benchmarks that opt in: an
// entry carrying an explicit ns_rel_tol field in the snapshot is held to
// baseline*(1+ns_rel_tol) ns/op (plus the -ns-slack absolute floor).
// Entries without ns_rel_tol are never time-gated, so only benchmarks
// whose runtime is long and stable enough to be meaningful (the
// deterministic -quick campaign drivers) participate, and the opt-in
// lives in the committed snapshot rather than in CI flags.
//
// Tolerances resolve per benchmark: explicit allocs_rel_tol /
// bytes_rel_tol / ns_rel_tol fields on the snapshot entry win, otherwise
// the -allocs-tol / -bytes-tol defaults apply (ns has no default: no
// field, no time gate). -update preserves those hand-tuned overrides for
// benchmarks that keep their name, mirroring goldencheck -update.
//
// -update also drops the entries of deleted benchmarks: an entry with no
// measured result whose Benchmark function (the name before any "/") no
// longer exists in a *_test.go under the snapshot's directory. An
// unmeasured entry whose function still exists is kept, so a partial
// refresh that ran only some packages leaves the others' entries alone.
//
// Every snapshot entry must be measured: a baseline entry with no result
// in the bench output (a renamed or deleted benchmark, or one the bench
// command no longer runs) fails the gate rather than silently never
// being checked again.
package main

import (
	"bufio"
	"encoding/json"
	"flag"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// Bench is one benchmark entry of the snapshot (and one parsed result
// line). Pointer fields distinguish "absent" from zero.
type Bench struct {
	Name         string   `json:"name"`
	NsPerOp      float64  `json:"ns_per_op"`
	BytesPerOp   *float64 `json:"bytes_per_op,omitempty"`
	AllocsPerOp  *float64 `json:"allocs_per_op,omitempty"`
	Pass         *float64 `json:"pass,omitempty"`
	AllocsRelTol *float64 `json:"allocs_rel_tol,omitempty"`
	BytesRelTol  *float64 `json:"bytes_rel_tol,omitempty"`
	// NsRelTol opts this benchmark into wall-time gating under -ns; see
	// the package comment. Absent means never time-gated.
	NsRelTol *float64 `json:"ns_rel_tol,omitempty"`
}

// CampaignSeconds records the wall-clock time of a quick campaign run at
// two sweep-worker counts; their ratio is the snapshot's speedup figure.
type CampaignSeconds struct {
	Workers1    float64 `json:"workers_1"`
	WorkersNCPU float64 `json:"workers_ncpu"`
}

// Snapshot mirrors BENCH_campaign.json, keeping the campaign-timing
// fields so -update round-trips them (or refreshes them when the
// -campaign-* flags are given).
type Snapshot struct {
	Date                 string           `json:"date"`
	Benchmarks           []Bench          `json:"benchmarks"`
	NCPU                 *int             `json:"ncpu,omitempty"`
	CampaignQuickSeconds *CampaignSeconds `json:"campaign_quick_seconds,omitempty"`
	Speedup              *float64         `json:"speedup,omitempty"`
	Note                 string           `json:"note,omitempty"`
}

// gomaxprocsSuffix strips the -N GOMAXPROCS tag go test appends to
// benchmark names.
var gomaxprocsSuffix = regexp.MustCompile(`-\d+$`)

// parseBenchOutput extracts benchmark result lines from raw
// `go test -bench` output (any number of packages concatenated).
func parseBenchOutput(path string) ([]Bench, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []Bench
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		fields := strings.Fields(sc.Text())
		if len(fields) < 4 || !strings.HasPrefix(fields[0], "Benchmark") {
			continue
		}
		b := Bench{Name: gomaxprocsSuffix.ReplaceAllString(fields[0], "")}
		seen := false
		for i := 2; i < len(fields)-1; i++ {
			v, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				continue
			}
			switch fields[i+1] {
			case "ns/op":
				b.NsPerOp = v
				seen = true
			case "B/op":
				b.BytesPerOp = ptr(v)
			case "allocs/op":
				b.AllocsPerOp = ptr(v)
			case "pass":
				b.Pass = ptr(v)
			}
		}
		if seen {
			out = append(out, b)
		}
	}
	return out, sc.Err()
}

func ptr(v float64) *float64 { return &v }

func readSnapshot(path string) (*Snapshot, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var s Snapshot
	if err := json.Unmarshal(data, &s); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	return &s, nil
}

func writeSnapshot(path string, s *Snapshot) error {
	data, err := json.MarshalIndent(s, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(data, '\n'), 0o644)
}

// regressed reports whether measured exceeds baseline by both the
// relative tolerance and the absolute slack.
func regressed(measured, baseline, relTol, absSlack float64) bool {
	return measured > baseline*(1+relTol) && measured-baseline > absSlack
}

func main() {
	baselinePath := flag.String("baseline", "BENCH_campaign.json", "benchmark snapshot to compare against (or refresh with -update)")
	benchPath := flag.String("bench", "", "raw `go test -bench -benchmem` output to gate")
	allocsTol := flag.Float64("allocs-tol", 0.10, "default relative tolerance on allocs/op")
	bytesTol := flag.Float64("bytes-tol", 0.15, "default relative tolerance on B/op")
	allocsSlack := flag.Float64("allocs-slack", 32, "absolute allocs/op slack below which differences never gate")
	bytesSlack := flag.Float64("bytes-slack", 8192, "absolute B/op slack below which differences never gate")
	nsGate := flag.Bool("ns", false, "also gate ns/op for snapshot entries that carry an ns_rel_tol field")
	nsSlack := flag.Float64("ns-slack", 5e7, "absolute ns/op slack below which time differences never gate")
	update := flag.Bool("update", false, "refresh the snapshot's entries from the bench output instead of comparing")
	campT1 := flag.Float64("campaign-t1", 0, "with -update: quick-campaign seconds at 1 sweep worker")
	campTn := flag.Float64("campaign-tn", 0, "with -update: quick-campaign seconds at -campaign-ncpu sweep workers")
	campNCPU := flag.Int("campaign-ncpu", 0, "with -update: CPU count the campaign timing ran at")
	flag.Parse()
	if *benchPath == "" {
		fmt.Fprintln(os.Stderr, "benchgate: -bench is required")
		flag.Usage()
		os.Exit(2)
	}
	results, err := parseBenchOutput(*benchPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, "benchgate:", err)
		os.Exit(2)
	}
	if len(results) == 0 {
		fmt.Fprintf(os.Stderr, "benchgate: no benchmark results in %s\n", *benchPath)
		os.Exit(2)
	}
	snap, err := readSnapshot(*baselinePath)
	if err != nil {
		if *update && os.IsNotExist(err) {
			snap = &Snapshot{}
		} else {
			fmt.Fprintf(os.Stderr, "benchgate: %v (generate it with scripts/bench_snapshot.sh or -update)\n", err)
			os.Exit(2)
		}
	}

	if *update {
		kept, dropped, err := dropDeleted(snap.Benchmarks, results, filepath.Dir(*baselinePath))
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		for _, name := range dropped {
			fmt.Printf("benchgate: dropped %s (no result, and no such benchmark function remains)\n", name)
		}
		snap.Benchmarks = kept
		byName := make(map[string]int, len(snap.Benchmarks))
		for i, b := range snap.Benchmarks {
			byName[b.Name] = i
		}
		for _, r := range results {
			if i, ok := byName[r.Name]; ok {
				// Preserve hand-tuned tolerance overrides.
				r.AllocsRelTol = snap.Benchmarks[i].AllocsRelTol
				r.BytesRelTol = snap.Benchmarks[i].BytesRelTol
				r.NsRelTol = snap.Benchmarks[i].NsRelTol
				snap.Benchmarks[i] = r
			} else {
				byName[r.Name] = len(snap.Benchmarks)
				snap.Benchmarks = append(snap.Benchmarks, r)
			}
		}
		snap.Date = time.Now().Format("2006-01-02")
		if *campT1 > 0 && *campTn > 0 && *campNCPU > 0 {
			snap.NCPU = campNCPU
			snap.CampaignQuickSeconds = &CampaignSeconds{Workers1: *campT1, WorkersNCPU: *campTn}
			snap.Speedup = ptr(float64(int(*campT1 / *campTn * 100 + 0.5)) / 100)
			if *campNCPU == 1 {
				snap.Note = "single-CPU host: the sweep pool cannot show a speedup here; run on a multi-core machine to measure it"
			} else {
				snap.Note = ""
			}
		}
		if err := writeSnapshot(*baselinePath, snap); err != nil {
			fmt.Fprintln(os.Stderr, "benchgate:", err)
			os.Exit(2)
		}
		fmt.Printf("benchgate: wrote %s (%d benchmarks, %d refreshed)\n", *baselinePath, len(snap.Benchmarks), len(results))
		return
	}

	baseline := make(map[string]Bench, len(snap.Benchmarks))
	for _, b := range snap.Benchmarks {
		baseline[b.Name] = b
	}
	regressions := 0
	improved := 0
	checked := 0
	for _, name := range unmeasured(snap.Benchmarks, results) {
		fmt.Printf("STALE: %s has a baseline entry but no measured result (renamed, deleted or not run; drop or refresh the entry)\n", name)
		regressions++
	}
	for _, r := range results {
		base, ok := baseline[r.Name]
		if !ok {
			fmt.Printf("MISSING: %s has no baseline entry (refresh with -update or scripts/bench_snapshot.sh)\n", r.Name)
			regressions++
			continue
		}
		checked++
		type dim struct {
			label    string
			measured *float64
			base     *float64
			relTol   float64
			absSlack float64
		}
		dims := []dim{
			{"allocs/op", r.AllocsPerOp, base.AllocsPerOp, tolOr(base.AllocsRelTol, *allocsTol), *allocsSlack},
			{"B/op", r.BytesPerOp, base.BytesPerOp, tolOr(base.BytesRelTol, *bytesTol), *bytesSlack},
		}
		if *nsGate && base.NsRelTol != nil {
			dims = append(dims, dim{"ns/op", ptr(r.NsPerOp), ptr(base.NsPerOp), *base.NsRelTol, *nsSlack})
		}
		for _, d := range dims {
			if d.measured == nil || d.base == nil {
				continue
			}
			if regressed(*d.measured, *d.base, d.relTol, d.absSlack) {
				fmt.Printf("REGRESSION: %s %s %.0f -> %.0f (+%.1f%%, tolerance %.0f%%)\n",
					r.Name, d.label, *d.base, *d.measured,
					100*(*d.measured / *d.base - 1), 100*d.relTol)
				regressions++
			} else if regressed(*d.base, *d.measured, d.relTol, d.absSlack) {
				improved++
			}
		}
	}
	if improved > 0 {
		fmt.Printf("benchgate: %d metric(s) improved beyond tolerance — consider refreshing the baseline with -update\n", improved)
	}
	if regressions > 0 {
		fmt.Printf("benchgate: %d regression(s) against %s\n", regressions, *baselinePath)
		os.Exit(1)
	}
	fmt.Printf("benchgate: %d benchmark(s) within the budget of %s\n", checked, *baselinePath)
}

// unmeasured returns the names of baseline entries with no result.
func unmeasured(baseline, results []Bench) []string {
	measured := make(map[string]bool, len(results))
	for _, r := range results {
		measured[r.Name] = true
	}
	var out []string
	for _, b := range baseline {
		if !measured[b.Name] {
			out = append(out, b.Name)
		}
	}
	return out
}

// benchFunc matches a benchmark function declaration in a test file.
var benchFunc = regexp.MustCompile(`(?m)^func (Benchmark\w*)\(`)

// dropDeleted returns the baseline entries -update keeps — every
// measured one, and every unmeasured one whose Benchmark function still
// exists in a *_test.go under root — and the names of the dropped ones.
func dropDeleted(baseline, results []Bench, root string) (kept []Bench, dropped []string, err error) {
	gone := unmeasured(baseline, results)
	if len(gone) == 0 {
		return baseline, nil, nil
	}
	funcs, err := benchFuncs(root)
	if err != nil {
		return nil, nil, err
	}
	drop := make(map[string]bool, len(gone))
	for _, name := range gone {
		fn, _, _ := strings.Cut(name, "/")
		if !funcs[fn] {
			drop[name] = true
			dropped = append(dropped, name)
		}
	}
	for _, b := range baseline {
		if !drop[b.Name] {
			kept = append(kept, b)
		}
	}
	return kept, dropped, nil
}

// benchFuncs collects the Benchmark function names declared in the
// *_test.go files under root, skipping hidden directories (VCS data,
// build caches).
func benchFuncs(root string) (map[string]bool, error) {
	funcs := map[string]bool{}
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
		if !strings.HasSuffix(path, "_test.go") {
			return nil
		}
		src, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		for _, m := range benchFunc.FindAllSubmatch(src, -1) {
			funcs[string(m[1])] = true
		}
		return nil
	})
	return funcs, err
}

func tolOr(override *float64, def float64) float64 {
	if override != nil {
		return *override
	}
	return def
}
