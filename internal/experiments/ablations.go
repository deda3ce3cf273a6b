package experiments

import (
	"fmt"
	"math"
	"time"

	"repro/internal/antenna"
	"repro/internal/coexist"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/mac/wihd"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sniffer"
	"repro/internal/trace"
	"repro/internal/transport"
)

func init() {
	register(Runner{ID: "A1", Title: "Ablation: phase-shifter quantization vs side lobes", Run: AblationQuantization})
	register(Runner{ID: "A2", Title: "Ablation: WiHD carrier sensing vs collisions", Run: AblationCarrierSense})
	register(Runner{ID: "A3", Title: "Ablation: aggregation policy vs usage and throughput", Run: AblationAggregation})
	register(Runner{ID: "A4", Title: "Ablation: reflection order in interference prediction", Run: AblationReflectionOrder})
	register(Runner{ID: "A5", Title: "Ablation: transmit power control vs interference", Run: AblationPowerControl})
}

// AblationQuantization isolates the design choice the paper blames for
// the strong side lobes: cost-effective phase shifters. Sweeping the
// shifter resolution on the same 2x8 aperture shows the side-lobe floor
// rising as bits are removed.
func AblationQuantization(o Options) core.Result {
	res := core.Result{
		ID:         "A1",
		Title:      "Phase quantization vs side-lobe level",
		PaperClaim: "§4.2 attributes the −4..−6 dB side lobes to cost-effective (coarsely quantized) beam steering",
	}
	// Average the peak side lobe across off-grid steering angles, where
	// quantization error is non-trivial.
	angles := []float64{-52, -23, 9, 37, 61}
	bitsList := []int{0, 1, 2, 3, 4}
	// Each resolution builds and analyzes its own arrays — pure
	// computation, so the pool runs all resolutions at once.
	type a1Point struct{ mean, worst float64 }
	pts := par.Map(len(bitsList), func(bi int) a1Point {
		worst := math.Inf(-1)
		sum, n := 0.0, 0
		for _, deg := range angles {
			a := antenna.NewD5000Array(rf.FreqChannel2Hz)
			a.PhaseBits = bitsList[bi]
			a.Steer(geom.Rad(deg))
			m := antenna.Analyze(a, 1440)
			psl := m.PeakSideLobeDB()
			if math.IsInf(psl, -1) {
				continue
			}
			sum += psl
			n++
			if psl > worst {
				worst = psl
			}
		}
		return a1Point{mean: sum / float64(n), worst: worst}
	})
	var xs, ys []float64
	for bi, bits := range bitsList {
		xs = append(xs, float64(bits))
		ys = append(ys, pts[bi].mean)
		res.Note("bits=%d: mean PSL %.1f dB, worst %.1f dB", bits, pts[bi].mean, pts[bi].worst)
	}
	res.Series = append(res.Series, core.Series{
		Label: "mean peak side lobe", XLabel: "phase bits (0=ideal)", YLabel: "dB rel. main lobe",
		X: xs, Y: ys,
	})
	// 1-bit must be markedly worse than ideal; 2-bit in between.
	ideal, one, two := ys[0], ys[1], ys[2]
	res.CheckTrue("1-bit worse than ideal", fmt.Sprintf("ideal %.1f dB", ideal), one > ideal+2)
	res.CheckTrue("2-bit between 1-bit and ideal",
		fmt.Sprintf("1-bit %.1f dB", one), two <= one+1 && two >= ideal-1)
	res.CheckRange("2-bit mean side lobe", two, -16, -4, "dB")
	return res
}

// AblationCarrierSense asks the paper's §5 "multiple MAC behaviours"
// question: would a carrier-sensing Air-3c have avoided the D5000's
// collisions? The model's answer is a sharpened version of the paper's
// design principle: no — an analog-beamforming radio senses through its
// data beam, so an interferer mounted outside that beam (here: behind
// the dock, the paper's side-lobe geometry) stays inaudible to it, and
// its politeness cannot protect exchanges it cannot hear. The ablation
// quantifies both the damage and the (small) relief sensing buys.
func AblationCarrierSense(o Options) core.Result {
	res := core.Result{
		ID:    "A2",
		Title: "WiHD carrier sensing vs WiGig collisions",
		PaperClaim: "§3.2/§5: blind WiHD transmissions collide with the D5000; MAC behaviour must " +
			"match the beam geometry — directional sensing alone cannot protect what it cannot hear",
	}
	run := func(withWiHD, sense bool) (timeouts int, tput float64, ok bool) {
		sc := core.NewScenario(geom.Open(), o.Seed)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), BoresightDeg: 90, Seed: o.Seed + 1},
			wigig.Config{Name: "laptop", Pos: geom.V(0, 6), BoresightDeg: -90, Seed: o.Seed + 2},
		)
		if !l.WaitAssociated(sc.Sched, 2*time.Second) {
			return 0, 0, false
		}
		if withWiHD {
			sys := sc.AddWiHD(
				wihd.Config{Name: "hdmi-tx", Pos: geom.V(0.5, -0.3), Seed: o.Seed + 3,
					CarrierSense: sense, CSThresholdDBm: -68, MaxFrameAir: 40 * time.Microsecond},
				wihd.Config{Name: "hdmi-rx", Pos: geom.V(3.0, 7.3), Seed: o.Seed + 4,
					CarrierSense: sense, CSThresholdDBm: -68},
			)
			if !sys.WaitPaired(sc.Sched, 2*time.Second) {
				return 0, 0, false
			}
		}
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 400e6})
		flow.Start()
		dur := 800 * time.Millisecond
		if o.Quick {
			dur = 400 * time.Millisecond
		}
		sc.Run(dur)
		return l.Station.Stats.AckTimeouts + l.Dock.Stats.AckTimeouts, flow.GoodputBps(), true
	}
	// Three independent scenarios: baseline, blind WiHD, sensing WiHD.
	var (
		baseTO, blindTO, senseTO int
		blindTput, senseTput     float64
		ok0, ok1, ok2            bool
	)
	par.Do(
		func() { baseTO, _, ok0 = run(false, false) },
		func() { blindTO, blindTput, ok1 = run(true, false) },
		func() { senseTO, senseTput, ok2 = run(true, true) },
	)
	if !ok0 || !ok1 || !ok2 {
		res.AddCheck("setup", "links come up", "failed", false)
		return res
	}
	res.CheckTrue("blind WiHD multiplies WiGig timeouts",
		fmt.Sprintf("baseline %d", baseTO), blindTO >= 3*baseTO)
	// The finding: the WiHD's data beam points away from the dock, so
	// its directional sensing never hears the dock's half of the
	// exchange — relief stays marginal.
	relief := float64(blindTO-senseTO) / float64(blindTO)
	res.CheckRange("relief from directional sensing", relief*100, -10, 35, "%")
	res.CheckTrue("WiGig throughput survives via retries",
		fmt.Sprintf("blind %.0f mbps", blindTput/1e6), senseTput >= blindTput*0.9)
	res.Note("ack timeouts: baseline %d, blind WiHD %d, sensing WiHD %d (relief %.0f%%)",
		baseTO, blindTO, senseTO, relief*100)
	res.Note("the sensing radio listens through its trained data beam and is deaf to the dock behind it")
	return res
}

// AblationAggregation sweeps the WiGig aggregation cap (never / paper's
// 25 µs / unconstrained-low) under a fixed offered load and measures the
// Figure-1 trade-off the paper's primer describes: aggregation buys
// medium time at equal throughput.
func AblationAggregation(o Options) core.Result {
	res := core.Result{
		ID:         "A3",
		Title:      "Aggregation policy vs medium usage",
		PaperClaim: "Fig. 1 primer / §5: aggregation reduces medium usage at equal throughput, freeing channel time",
	}
	run := func(maxAgg time.Duration) (busy float64, tput float64, ok bool) {
		sc := core.NewScenario(geom.Open(), o.Seed)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + 1},
			wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: o.Seed + 2},
		)
		if !l.WaitAssociated(sc.Sched, time.Second) {
			return 0, 0, false
		}
		l.Station.SetMaxAggAir(maxAgg)
		sn := sc.AddSniffer("vubiq", geom.V(1, 0.4), antenna.OpenWaveguide(), -math.Pi/2)
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 700e6})
		flow.Start()
		dur := 500 * time.Millisecond
		if o.Quick {
			dur = 250 * time.Millisecond
		}
		sc.Run(100 * time.Millisecond)
		sn.Reset()
		m := trace.NewBusyMeter(sniffer.AmplitudeFromPower(-72), 0)
		m.From = sc.Now()
		sn.Sink = m
		sc.Run(dur)
		return m.Ratio(sc.Now()), flow.GoodputBps(), true
	}
	caps := []time.Duration{7 * time.Microsecond, 25 * time.Microsecond}
	labels := []string{"minimal (≈1 MPDU)", "paper cap (25 µs)"}
	type a3Point struct {
		busy, tput float64
		ok         bool
	}
	cells := par.Map(len(caps), func(i int) a3Point {
		b, tp, ok := run(caps[i])
		return a3Point{busy: b, tput: tp, ok: ok}
	})
	var busies, tputs []float64
	for i := range caps {
		c := cells[i]
		if !c.ok {
			res.AddCheck("setup", "link comes up", "failed", false)
			return res
		}
		busies = append(busies, c.busy*100)
		tputs = append(tputs, c.tput/1e6)
		res.Note("%s: busy %.0f%%, goodput %.0f mbps", labels[i], c.busy*100, c.tput/1e6)
	}
	res.Series = append(res.Series, core.Series{
		Label: "medium usage", XLabel: "aggregation cap (µs)", YLabel: "busy (%)",
		X: []float64{7, 25}, Y: busies,
	})
	res.CheckTrue("equal goodput across policies",
		fmt.Sprintf("%.0f vs %.0f mbps", tputs[0], tputs[1]),
		math.Abs(tputs[0]-tputs[1]) < 0.15*tputs[1]+1)
	res.CheckTrue("aggregation reduces medium usage",
		fmt.Sprintf("minimal %.0f%%", busies[0]), busies[1] < busies[0]-10)
	return res
}

// AblationReflectionOrder quantifies the §5 reflection design principle
// with the coexist analyzer: a geometric interference predictor that
// ignores reflections misclassifies shielded-but-reflected link pairs as
// isolated; first order catches single bounces; the paper asks for two.
func AblationReflectionOrder(o Options) core.Result {
	res := core.Result{
		ID:         "A4",
		Title:      "Reflection order in interference prediction",
		PaperClaim: "§5: geometric MAC designs should include up to two reflections or face unexpected collisions",
	}
	// A corridor with a metal ceiling wall and a second metal side wall:
	// the pair couples via one bounce; a second pair via two bounces.
	room := geom.Open()
	room.AddWall(geom.V(-5, 3), geom.V(12, 3), "metal")
	room.AddWall(geom.V(8, -3), geom.V(8, 3), "metal")
	room.AddObstacle(geom.V(2.5, -1), geom.V(2.5, 1.8), "absorber")
	links := []coexist.Link{
		{
			Name: "left",
			A:    coexist.Endpoint{Pos: geom.V(0, 0), BoresightDeg: 0},
			B:    coexist.Endpoint{Pos: geom.V(2, 0), BoresightDeg: 180},
		},
		{
			Name: "right",
			A:    coexist.Endpoint{Pos: geom.V(3, 0), BoresightDeg: 0},
			B:    coexist.Endpoint{Pos: geom.V(5, 0), BoresightDeg: 180},
		},
	}
	// Each order builds its own analyzer over the shared (read-only) room;
	// the three predictions run concurrently.
	type a4Point struct {
		worst  float64
		regime coexist.Regime
		err    error
	}
	orders := par.Map(3, func(order int) a4Point {
		an := coexist.NewAnalyzer(room)
		an.MaxReflections = order
		cs, err := an.Analyze(links)
		if err != nil {
			return a4Point{err: err}
		}
		worst := math.Inf(-1)
		regime := coexist.Isolated
		for _, c := range cs {
			if c.WorstRxDBm > worst {
				worst = c.WorstRxDBm
			}
			if c.Regime > regime {
				regime = c.Regime
			}
		}
		return a4Point{worst: worst, regime: regime}
	})
	var worsts []float64
	for order, p := range orders {
		if p.err != nil {
			res.AddCheck("analysis", "runs", p.err.Error(), false)
			return res
		}
		worsts = append(worsts, p.worst)
		res.Note("order %d: worst coupling %.1f dBm, regime %v", order, p.worst, p.regime)
	}
	res.Series = append(res.Series, core.Series{
		Label: "worst predicted coupling", XLabel: "max reflection order", YLabel: "dBm",
		X: []float64{0, 1, 2}, Y: worsts,
	})
	res.CheckTrue("1st order reveals coupling 0th order misses",
		fmt.Sprintf("order0 %.1f dBm", worsts[0]), worsts[1] > worsts[0]+10)
	res.CheckTrue("2nd order does not reduce the prediction",
		fmt.Sprintf("order1 %.1f dBm", worsts[1]), worsts[2] >= worsts[1]-0.1)
	return res
}

// AblationPowerControl exercises the §5 "Range" design principle: a
// transmitter that lowers its power to the minimum its MCS needs bounds
// the interference it leaks into a neighbouring link.
func AblationPowerControl(o Options) core.Result {
	res := core.Result{
		ID:         "A5",
		Title:      "Transmit power control vs leaked interference",
		PaperClaim: "§5: devices may need to adjust transmit power to control interference even in quasi-static homes",
	}
	run := func(txPower float64) (victimTO int, aggTput float64, vicRate float64, ok bool) {
		sc := core.NewScenario(geom.Open(), o.Seed)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		// The aggressor: a short, strong link that does not need full
		// power.
		agg := sc.AddWiGigLink(
			wigig.Config{Name: "aggDock", Pos: geom.V(0, 0), BoresightDeg: 90, Seed: o.Seed + 1},
			wigig.Config{Name: "aggLap", Pos: geom.V(0, 1.2), BoresightDeg: -90, Seed: o.Seed + 2},
		)
		// The victim: a long marginal link one meter over.
		vic := sc.AddWiGigLink(
			wigig.Config{Name: "vicDock", Pos: geom.V(1.0, 0), BoresightDeg: 90, Seed: o.Seed + 3},
			wigig.Config{Name: "vicLap", Pos: geom.V(1.0, 9), BoresightDeg: -90, Seed: o.Seed + 4},
		)
		if !agg.WaitAssociated(sc.Sched, 2*time.Second) || !vic.WaitAssociated(sc.Sched, 2*time.Second) {
			return 0, 0, 0, false
		}
		agg.Station.SetTxPowerDBm(txPower)
		agg.Dock.SetTxPowerDBm(txPower)
		fa := transport.NewFlow(sc.Sched, agg.Station, agg.Dock, transport.Config{PacingBps: 500e6})
		fv := transport.NewFlow(sc.Sched, vic.Station, vic.Dock, transport.Config{PacingBps: 300e6})
		fa.Start()
		fv.Start()
		dur := 800 * time.Millisecond
		if o.Quick {
			dur = 400 * time.Millisecond
		}
		sc.Run(dur)
		return vic.Station.Stats.AckTimeouts + vic.Dock.Stats.AckTimeouts,
			fa.GoodputBps(), vic.Dock.RateBps(), true
	}
	var (
		fullTO, tpcTO                        int
		fullTput, fullRate, tpcTput, tpcRate float64
		ok1, ok2                             bool
	)
	par.Do(
		func() { fullTO, fullTput, fullRate, ok1 = run(0) }, // stock power
		func() { tpcTO, tpcTput, tpcRate, ok2 = run(-8) },   // power-controlled: 8 dB back-off
	)
	if !ok1 || !ok2 {
		res.AddCheck("setup", "links come up", "failed", false)
		return res
	}
	res.CheckTrue("aggressor keeps its throughput at reduced power",
		fmt.Sprintf("full %.0f mbps", fullTput/1e6), tpcTput >= fullTput*0.8)
	res.CheckTrue("power control reduces victim disruption by ≥25%",
		fmt.Sprintf("full-power timeouts %d", fullTO), tpcTO*4 <= fullTO*3)
	res.CheckTrue("victim's reported rate recovers",
		fmt.Sprintf("full %.2f Gbps", fullRate/1e9), tpcRate >= fullRate)
	res.Note("victim: %d→%d timeouts, rate %.2f→%.2f Gbps; aggressor tput %.0f→%.0f mbps",
		fullTO, tpcTO, fullRate/1e9, tpcRate/1e9, fullTput/1e6, tpcTput/1e6)
	return res
}
