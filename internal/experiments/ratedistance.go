package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/par"
	"repro/internal/phy"
	"repro/internal/stats"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "F12", Title: "Fig. 12: PHY rate / MCS at 2, 8, 14 m", Run: Fig12})
	register(Runner{ID: "F13", Title: "Fig. 13: TCP throughput vs distance", Run: Fig13})
	register(Runner{ID: "F14", Title: "Fig. 14: long-run rate and amplitude with realignments", Run: Fig14})
}

// Fig12 runs three low-traffic links (2, 8, 14 m) and samples the
// driver-reported PHY rate over time, as the paper does for ten minutes.
// Expectations: 2 m runs 16-QAM 5/8 (3850 Mbps) but never the top MCS;
// 8 m runs in the QPSK band (1.5–2.5 Gbps); 14 m runs in the BPSK band
// near ≈1.2 Gbps with more fluctuation.
func Fig12(o Options) core.Result {
	res := core.Result{
		ID:         "F12",
		Title:      "MCS with low traffic (Fig. 12)",
		PaperClaim: "2 m: 3850 Mbps (16-QAM 5/8, never top MCS); 8 m: QPSK band; 14 m: ≈1.2 Gbps BPSK band, less stable",
	}
	dur := 20 * time.Second
	sample := 250 * time.Millisecond
	if o.Quick {
		dur = 4 * time.Second
	}
	distances := []float64{2, 8, 14}
	// Each distance is an independent scenario; run them through the
	// sweep pool and assemble by index so output order never depends on
	// which worker finishes first.
	type distTrace struct {
		xs, ys []float64
		failed bool
	}
	traces := par.Map(len(distances), func(i int) distTrace {
		d := distances[i]
		sc := core.NewScenario(geom.Open(), o.Seed+uint64(i)*13)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + uint64(i)*13},
			wigig.Config{Name: "sta", Pos: geom.V(d, 0), Seed: o.Seed + uint64(i)*13 + 1},
		)
		if !l.WaitAssociated(sc.Sched, 2*time.Second) {
			return distTrace{failed: true}
		}
		// Low traffic: a trickle flow, as in the paper's MCS readings.
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 1e6})
		flow.Start()
		var xs, ys []float64
		deadline := sc.Now() + dur
		for sc.Now() < deadline {
			sc.Run(sample)
			if !l.Dock.Associated() {
				break
			}
			xs = append(xs, sc.Now().Seconds())
			ys = append(ys, l.Dock.RateBps()/1e9)
		}
		return distTrace{xs: xs, ys: ys}
	})
	rates := map[float64][]float64{}
	for i, tr := range traces {
		d := distances[i]
		if tr.failed {
			res.AddCheck(fmt.Sprintf("association at %.0f m", d), "associates", "failed", false)
			continue
		}
		rates[d] = tr.ys
		res.Series = append(res.Series, core.Series{
			Label: fmt.Sprintf("%.0f m", d), XLabel: "time (s)", YLabel: "PHY rate (Gbps)",
			X: tr.xs, Y: tr.ys,
		})
	}
	if ys := rates[2]; len(ys) > 0 {
		res.CheckRange("median rate at 2 m", stats.Median(ys), 3.0, 3.9, "Gbps")
		res.CheckRange("max rate at 2 m (never top MCS)", stats.Max(ys), 0, 4.6, "Gbps")
		top := phy.MCS12.RateBps() / 1e9
		res.CheckTrue("top MCS never reported", "max < 4.62", stats.Max(ys) < top-1e-9)
	}
	if ys := rates[8]; len(ys) > 0 {
		res.CheckRange("median rate at 8 m", stats.Median(ys), 1.5, 2.6, "Gbps")
	}
	if ys := rates[14]; len(ys) > 0 {
		res.CheckRange("median rate at 14 m", stats.Median(ys), 0.9, 2.0, "Gbps")
	}
	return res
}

// Fig13 sweeps link distance and measures average iperf throughput over
// several "experiment days" (independent atmospheric margins). Paper
// shape: a ≈900 Mbps plateau (Ethernet-capped), per-run abrupt cliffs
// between 10 and 17 m, and a gradually decaying average.
func Fig13(o Options) core.Result {
	res := core.Result{
		ID:         "F13",
		Title:      "Throughput vs distance (Fig. 13)",
		PaperClaim: "≈900 Mbps plateau; per-run abrupt cliff at 10–17 m; average falls gradually",
	}
	distances := []float64{2, 4, 6, 8, 10, 12, 14, 15, 16, 18, 20}
	runs := 3
	dur := 800 * time.Millisecond
	if o.Quick {
		distances = []float64{2, 8, 12, 14, 16, 20}
		runs = 3
		dur = 500 * time.Millisecond
	}
	var avgX, avgY []float64
	var cliffs []float64
	perRun := make([][]float64, runs)
	for r := 0; r < runs; r++ {
		perRun[r] = make([]float64, len(distances))
	}
	// One atmospheric draw per "day", hoisted so every grid cell can run
	// independently of run order.
	dayOffsets := make([]float64, runs)
	for r := range dayOffsets {
		dayOffsets[r] = rf2AtmosphericDraw(stats.NewRNG(o.Seed + uint64(r)*101))
	}
	// Flatten the runs × distances grid: every cell builds its own
	// scenario from derived seeds, so the pool chews through all of them
	// at once and each worker writes only its own perRun cell.
	par.Sweep(runs*len(distances), func(k int) {
		r, di := k/len(distances), k%len(distances)
		d := distances[di]
		sc := core.NewScenario(geom.Open(), o.Seed+uint64(r)*101+uint64(di))
		sc.Med.ExtraLossDB = dayOffsets[r]
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + uint64(r*100+di)},
			wigig.Config{Name: "sta", Pos: geom.V(d, 0), Seed: o.Seed + uint64(r*100+di) + 1},
		)
		tput := 0.0
		if l.WaitAssociated(sc.Sched, time.Second) {
			flow := transport.NewFlow(sc.Sched, l.Station, l.Dock,
				transport.Config{PacingBps: transport.EthernetGoodputBps})
			flow.Start()
			sc.Run(dur)
			tput = flow.GoodputBps()
			if !l.Dock.Associated() {
				// Link broke mid-run: unstable regime.
				tput = math.Min(tput, 100e6)
			}
		}
		perRun[r][di] = tput / 1e6
	})
	for r := 0; r < runs; r++ {
		for di, d := range distances {
			if perRun[r][di] < 400 && d >= 6 {
				cliffs = append(cliffs, d)
				break
			}
		}
	}
	for di, d := range distances {
		sum := 0.0
		for r := 0; r < runs; r++ {
			sum += perRun[r][di]
		}
		avgX = append(avgX, d)
		avgY = append(avgY, sum/float64(runs))
	}
	res.Series = append(res.Series, core.Series{
		Label: "average", XLabel: "distance (m)", YLabel: "throughput (mbps)",
		X: avgX, Y: avgY,
	})
	for r := 0; r < runs && r < 2; r++ {
		res.Series = append(res.Series, core.Series{
			Label: fmt.Sprintf("run %d", r), XLabel: "distance (m)", YLabel: "throughput (mbps)",
			X: avgX, Y: perRun[r],
		})
	}
	// Plateau: short distances Ethernet-capped near 900 Mbps.
	res.CheckRange("plateau throughput at 2 m", avgY[indexOf(distances, 2)], 750, 980, "mbps")
	// Cliffs land in the paper's 10–17 m envelope (we allow 8–19 for the
	// simulated margins).
	if len(cliffs) == 0 {
		res.AddCheck("cliffs observed", "every run breaks somewhere", "none", false)
	} else {
		res.CheckRange("earliest cliff", stats.Min(cliffs), 8, 19, "m")
		res.CheckRange("latest cliff", stats.Max(cliffs), 8, 20.5, "m")
		spread := stats.Max(cliffs) - stats.Min(cliffs)
		res.CheckTrue("cliff varies across days", "spread ≥ 1 m", spread >= 1 || len(cliffs) < 2)
	}
	// Average decays gradually: at the middle of the cliff band the
	// average sits strictly between plateau and zero.
	mid := avgY[indexOf(distances, 14)]
	res.CheckRange("average at 14 m (partial)", mid, 1, 850, "mbps")
	res.Note("cliff distances: %v", cliffs)
	return res
}

// rf2AtmosphericDraw draws a day's atmospheric offset with the default
// budget's sigma (kept local to avoid exporting a helper just for this).
func rf2AtmosphericDraw(rng *stats.RNG) float64 {
	return rng.Norm(0, 2.0)
}

func indexOf(xs []float64, v float64) int {
	for i, x := range xs {
		if x == v {
			return i
		}
	}
	return 0
}

// Fig14 runs one static short link for a long time while the channel
// drifts slowly (a gentle random walk on the link's shadowing offset, the
// stand-in for the paper's "beam pattern realignment" triggers) and
// verifies: the reported rate is mostly constant but steps occasionally,
// and rate steps coincide with beam realignments and amplitude changes.
func Fig14(o Options) core.Result {
	res := core.Result{
		ID:         "F14",
		Title:      "Long-run rate and amplitude (Fig. 14)",
		PaperClaim: "rate varies occasionally in a static scene, precisely when the amplitude (beam) changes",
	}
	dur := 300 * time.Second
	if o.Quick {
		dur = 60 * time.Second
	}
	sc := core.NewScenario(geom.Open(), o.Seed)
	sc.Med.Budget.AtmosphericSigmaDB = 0
	l := sc.AddWiGigLink(
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed},
		wigig.Config{Name: "sta", Pos: geom.V(2.5, 0), Seed: o.Seed + 1},
	)
	if !l.WaitAssociated(sc.Sched, time.Second) {
		res.AddCheck("association", "associates", "failed", false)
		return res
	}
	flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 5e6})
	flow.Start()

	// Channel dynamics: a mild mean-reverting drift plus sporadic fade
	// events a few dB deep — the unexplained amplitude steps the paper's
	// Fig. 14 trace shows in an otherwise static scene. The fades are
	// what trigger the D5000's joint beam/rate adjustments.
	drift, fade := 0.0, 0.0
	rng := stats.NewRNG(o.Seed ^ 0xF14)
	a, b := l.Dock.Radio().ID, l.Station.Radio().ID
	apply := func() { sc.Med.SetLinkOffset(a, b, drift+fade) }
	var tick func()
	tick = func() {
		drift = 0.85*drift + rng.Norm(0, 0.6)
		apply()
		sc.Sched.After(2500*time.Millisecond, tick)
	}
	sc.Sched.After(2500*time.Millisecond, tick)
	var fadeEvent func()
	fadeEvent = func() {
		fade = -rng.Range(4, 8)
		apply()
		sc.Sched.After(sim2Dur(rng.Range(2, 6)), func() {
			fade = 0
			apply()
		})
		sc.Sched.After(sim2Dur(rng.Range(12, 22)), fadeEvent)
	}
	sc.Sched.After(sim2Dur(rng.Range(6, 12)), fadeEvent)

	var xs, rateGbps, offsets []float64
	sample := 500 * time.Millisecond
	for sc.Now() < dur {
		sc.Run(sample)
		if !l.Dock.Associated() {
			break
		}
		xs = append(xs, sc.Now().Seconds())
		rateGbps = append(rateGbps, l.Dock.RateBps()/1e9)
		offsets = append(offsets, sc.Med.LinkOffset(a, b))
	}
	res.Series = append(res.Series, core.Series{
		Label: "interface rate", XLabel: "time (s)", YLabel: "rate (Gbps)", X: xs, Y: rateGbps,
	})
	res.Series = append(res.Series, core.Series{
		Label: "channel drift", XLabel: "time (s)", YLabel: "offset (dB)", X: xs, Y: offsets,
	})

	rateChanges := 0
	coincide := 0
	for i := 1; i < len(rateGbps); i++ {
		if rateGbps[i] != rateGbps[i-1] {
			rateChanges++
			// Amplitude (offset) changed in the surrounding seconds?
			lo := int(math.Max(0, float64(i-12)))
			if math.Abs(offsets[i]-offsets[lo]) > 0.3 {
				coincide++
			}
		}
	}
	realigns := l.Dock.Stats.Realignments + l.Station.Stats.Realignments
	res.CheckTrue("rate mostly stable", "changes < 25% of samples",
		rateChanges*4 < len(rateGbps))
	res.CheckTrue("occasional rate changes", "≥ 1", rateChanges >= 1)
	res.CheckTrue("realignments occur", "≥ 1", realigns >= 1)
	if rateChanges > 0 {
		res.CheckTrue("rate changes track amplitude", "≥ 60%",
			coincide*10 >= rateChanges*6)
	}
	res.Note("%d rate changes, %d realignments over %v", rateChanges, realigns, dur)
	return res
}

// sim2Dur converts seconds to a simulation duration.
func sim2Dur(sec float64) time.Duration {
	return time.Duration(sec * float64(time.Second))
}
