// Benchmarks: one per table and figure of the paper's evaluation, each
// regenerating its artifact through the experiment driver (quick
// settings, fixed seed). `go test -bench=. -benchmem` therefore replays
// the entire measurement campaign. Each benchmark reports pass=1/0 as a
// custom metric so regressions in the reproduced *shape* show up in
// benchmark diffs, not just in wall time.
package repro_test

import (
	"math"
	"math/rand"
	"runtime"
	"testing"

	"repro/internal/coexist"
	"repro/internal/experiments"
	"repro/internal/geom"
	"repro/internal/par"
	"repro/internal/rf"
)

func benchExperiment(b *testing.B, id string) {
	b.Helper()
	r, ok := experiments.Get(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	pass := 1.0
	for i := 0; i < b.N; i++ {
		// Fixed seed: the benchmark measures cost and reproduction
		// stability of the canonical run, not seed robustness (the unit
		// tests cover correctness).
		res := r.Run(experiments.Options{Seed: 1, Quick: true})
		if !res.Pass() {
			pass = 0
			b.Logf("%s failed:\n%s", id, res)
		}
	}
	b.ReportMetric(pass, "pass")
}

// BenchmarkTable1FramePeriodicity regenerates Table 1 (frame repeat
// intervals of both systems).
func BenchmarkTable1FramePeriodicity(b *testing.B) { benchExperiment(b, "T1") }

// BenchmarkFig3DiscoveryFrame regenerates Fig. 3 (32-sub-element
// discovery frame structure).
func BenchmarkFig3DiscoveryFrame(b *testing.B) { benchExperiment(b, "F3") }

// BenchmarkFig8FrameFlow regenerates Fig. 8 (TXOP bursts with control
// frames and data/ACK exchange).
func BenchmarkFig8FrameFlow(b *testing.B) { benchExperiment(b, "F8") }

// BenchmarkFig9FrameLengthCDF regenerates Fig. 9 (frame-length CDFs
// across TCP loads).
func BenchmarkFig9FrameLengthCDF(b *testing.B) { benchExperiment(b, "F9") }

// BenchmarkFig10LongFrames regenerates Fig. 10 (long-frame percentage vs
// load).
func BenchmarkFig10LongFrames(b *testing.B) { benchExperiment(b, "F10") }

// BenchmarkFig11MediumUsage regenerates Fig. 11 (medium usage vs load).
func BenchmarkFig11MediumUsage(b *testing.B) { benchExperiment(b, "F11") }

// BenchmarkFig12MCSDistance regenerates Fig. 12 (PHY rate at 2/8/14 m).
func BenchmarkFig12MCSDistance(b *testing.B) { benchExperiment(b, "F12") }

// BenchmarkFig13ThroughputDistance regenerates Fig. 13 (throughput vs
// distance with per-day cliffs).
func BenchmarkFig13ThroughputDistance(b *testing.B) { benchExperiment(b, "F13") }

// BenchmarkFig14Realignment regenerates Fig. 14 (long-run rate/amplitude
// with beam realignments).
func BenchmarkFig14Realignment(b *testing.B) { benchExperiment(b, "F14") }

// BenchmarkFig15WiHDFlow regenerates Fig. 15 (WiHD frame flow).
func BenchmarkFig15WiHDFlow(b *testing.B) { benchExperiment(b, "F15") }

// BenchmarkFig16QuasiOmni regenerates Fig. 16 (quasi-omni discovery
// patterns).
func BenchmarkFig16QuasiOmni(b *testing.B) { benchExperiment(b, "F16") }

// BenchmarkFig17Directional regenerates Fig. 17 (directional patterns,
// aligned and rotated).
func BenchmarkFig17Directional(b *testing.B) { benchExperiment(b, "F17") }

// BenchmarkFig18ReflectionsWiGig regenerates Fig. 18 (D5000 angular
// profiles in the conference room).
func BenchmarkFig18ReflectionsWiGig(b *testing.B) { benchExperiment(b, "F18") }

// BenchmarkFig19ReflectionsWiHD regenerates Fig. 19 (WiHD angular
// profiles).
func BenchmarkFig19ReflectionsWiHD(b *testing.B) { benchExperiment(b, "F19") }

// BenchmarkFig20NLOSThroughput regenerates Fig. 20 (blocked-LOS link over
// a wall reflection).
func BenchmarkFig20NLOSThroughput(b *testing.B) { benchExperiment(b, "F20") }

// BenchmarkFig21InterferenceTrace regenerates Fig. 21 (collision and
// carrier-sense frame-level effects).
func BenchmarkFig21InterferenceTrace(b *testing.B) { benchExperiment(b, "F21") }

// BenchmarkFig22SideLobeInterference regenerates Fig. 22 (utilization and
// link rate vs interferer distance).
func BenchmarkFig22SideLobeInterference(b *testing.B) { benchExperiment(b, "F22") }

// BenchmarkFig23ReflectionInterference regenerates Fig. 23 (TCP under
// reflected interference, power-off recovery).
func BenchmarkFig23ReflectionInterference(b *testing.B) { benchExperiment(b, "F23") }

// BenchmarkAggregationGain regenerates the §4.1 headline (5.4× scaling
// via aggregation alone).
func BenchmarkAggregationGain(b *testing.B) { benchExperiment(b, "S41") }

// BenchmarkAblationQuantization sweeps phase-shifter resolution against
// side-lobe level (DESIGN.md ablation).
func BenchmarkAblationQuantization(b *testing.B) { benchExperiment(b, "A1") }

// BenchmarkAblationCarrierSense compares a blind and a sensing WiHD
// against WiGig collision counts.
func BenchmarkAblationCarrierSense(b *testing.B) { benchExperiment(b, "A2") }

// BenchmarkAblationAggregation compares aggregation policies at equal
// offered load.
func BenchmarkAblationAggregation(b *testing.B) { benchExperiment(b, "A3") }

// BenchmarkAblationReflectionOrder sweeps ray-tracer depth in the
// coexistence predictor.
func BenchmarkAblationReflectionOrder(b *testing.B) { benchExperiment(b, "A4") }

// BenchmarkAblationPowerControl compares full-power and power-controlled
// aggressors next to a marginal victim link.
func BenchmarkAblationPowerControl(b *testing.B) { benchExperiment(b, "A5") }

// BenchmarkAblationChannelSeparation closes the coexistence loop: the
// planner's channel assignment removes the same-channel collisions.
func BenchmarkAblationChannelSeparation(b *testing.B) { benchExperiment(b, "A6") }

// BenchmarkBlockageTransient exercises the extension experiment: a
// walker crossing the LOS, with and without a reflecting wall.
func BenchmarkBlockageTransient(b *testing.B) { benchExperiment(b, "X1") }

// BenchmarkDenseDeployment exercises the dense-deployment extension:
// N same-channel links vs the planner's two-channel assignment.
func BenchmarkDenseDeployment(b *testing.B) { benchExperiment(b, "X2") }

// benchCampaign replays the entire quick campaign sequentially at the
// given sweep-pool width. Comparing the Workers1 and WorkersMax variants
// measures the intra-experiment speedup in isolation (no inter-
// experiment fan-out), on top of the determinism guarantee that both
// produce bit-identical results.
func benchCampaign(b *testing.B, workers int) {
	b.Helper()
	prev := par.SetWorkers(workers)
	defer par.SetWorkers(prev)
	pass := 1.0
	for i := 0; i < b.N; i++ {
		for _, r := range experiments.All() {
			if !r.Run(experiments.Options{Seed: 1, Quick: true}).Pass() {
				pass = 0
			}
		}
	}
	b.ReportMetric(pass, "pass")
}

// benchManyWalls traces a fixed set of cross-floor links through an
// n-room office floor (geom.OfficeFloor), with the spatial index or the
// retained brute-force reference. Wall count grows linearly with n, so
// the Grid/Naive pairs at n ∈ {1,4,16,64} expose the tracer's scaling
// law: the naive scan grows superlinearly (W² mirror pairs, W-wall leg
// scans) while the grid walk tracks occupied cells.
func benchManyWalls(b *testing.B, n int, naive bool) {
	b.Helper()
	room := geom.OfficeFloor(n)
	tr := rf.NewTracer(room, rf.FreqChannel2Hz)
	tr.Naive = naive
	// One in-room link, one adjacent-room link (both keep paths under the
	// loss cutoff at every floor size), and the far diagonal (often empty
	// at large n — every candidate exceeds MaxLossDB — but it is the
	// worst case for enumeration cost, which is what this measures).
	pairs := [][2]geom.Vec2{
		{geom.OfficeCenter(n, 0).Add(geom.V(-1, -0.5)), geom.OfficeCenter(n, 0).Add(geom.V(1, 0.5))},
		{geom.OfficeCenter(n, 0), geom.OfficeCenter(n, (n+1)/2)},
		{geom.OfficeCenter(n, 0), geom.OfficeCenter(n, n-1)},
	}
	var ps []rf.Path
	var err error
	total := 0
	// Warm the index and scratch: the grid and block boxes are built
	// once per room epoch, so steady-state queries are what's measured.
	for _, p := range pairs {
		if ps, err = tr.TraceAppend(ps[:0], p[0], p[1]); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		total = 0
		for _, p := range pairs {
			ps, err = tr.TraceAppend(ps[:0], p[0], p[1])
			if err != nil {
				b.Fatal(err)
			}
			total += len(ps)
		}
	}
	if total == 0 {
		b.Fatal("benchmark scenario traced no paths")
	}
}

// The indexed tracer across floor sizes (gated on ns/op in
// BENCH_campaign.json: this family is the PR's speedup claim).
func BenchmarkManyWallsGrid1(b *testing.B)  { benchManyWalls(b, 1, false) }
func BenchmarkManyWallsGrid4(b *testing.B)  { benchManyWalls(b, 4, false) }
func BenchmarkManyWallsGrid16(b *testing.B) { benchManyWalls(b, 16, false) }
func BenchmarkManyWallsGrid64(b *testing.B) { benchManyWalls(b, 64, false) }

// The brute-force reference on the same floors — the denominator of the
// speedup, kept in the snapshot so the scaling gap stays visible.
func BenchmarkManyWallsNaive1(b *testing.B)  { benchManyWalls(b, 1, true) }
func BenchmarkManyWallsNaive4(b *testing.B)  { benchManyWalls(b, 4, true) }
func BenchmarkManyWallsNaive16(b *testing.B) { benchManyWalls(b, 16, true) }
func BenchmarkManyWallsNaive64(b *testing.B) { benchManyWalls(b, 64, true) }

// BenchmarkCoexistAnalyze16 plans six seeded links on a 16-room office
// floor with coexist.Analyze. Its allocation entry in
// BENCH_campaign.json gates the planner's cost model: one tracer index
// per call, 4·n(n−1)+2n traces. A tracer per coupling would multiply
// both allocs/op and B/op.
func BenchmarkCoexistAnalyze16(b *testing.B) {
	const n = 16
	room := geom.OfficeFloor(n)
	rng := rand.New(rand.NewSource(1))
	var links []coexist.Link
	for _, ri := range []int{0, 5, 10, 15, 3, 12} {
		c := geom.OfficeCenter(n, ri)
		at := func() geom.Vec2 { return c.Add(geom.V(rng.Float64()*3.2-1.6, rng.Float64()*2.2-1.1)) }
		a, z := at(), at()
		for a.Dist(z) < 1 {
			z = at()
		}
		boresight := z.Sub(a).Angle() * 180 / math.Pi
		links = append(links, coexist.Link{
			A: coexist.Endpoint{Pos: a, BoresightDeg: boresight, TxPowerDBm: rng.Float64() * 10},
			B: coexist.Endpoint{Pos: z, BoresightDeg: boresight + 180, TxPowerDBm: rng.Float64() * 10},
		})
	}
	an := coexist.NewAnalyzer(room)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cs, err := an.Analyze(links)
		if err != nil {
			b.Fatal(err)
		}
		if len(cs) != len(links)*(len(links)-1) {
			b.Fatalf("%d couplings", len(cs))
		}
	}
}

// BenchmarkCampaignWorkers1 is the serial baseline.
func BenchmarkCampaignWorkers1(b *testing.B) { benchCampaign(b, 1) }

// BenchmarkCampaignWorkersMax uses one sweep worker per CPU.
func BenchmarkCampaignWorkersMax(b *testing.B) { benchCampaign(b, runtime.NumCPU()) }
