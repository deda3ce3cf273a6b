package experiments

import (
	"time"

	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/par"
)

func init() {
	register(Runner{ID: "F24", Title: "Fault injection: blockage-burst outage and re-beamforming recovery", Run: BlockageRecovery})
}

// BlockageRecovery extends the paper's blockage observations (§4.1,
// Figs. 13/14) with a controlled fault-injection study: a deep blockage
// burst of varying length hits an associated WiGig link, and we measure
// the outage it causes and the re-beamforming latency once the burst
// clears. The paper's protocol constants predict the shape: bursts
// shorter than the 16-beacon silence limit (≈17.6 ms) ride through
// invisibly, longer ones tear the association down and recovery is
// dominated by the 102.4 ms discovery sweep period. A shallow burst
// exercises the other recovery path — in-place beam realignment without
// a link break (Fig. 14's rate/realignment coupling).
func BlockageRecovery(o Options) core.Result {
	res := core.Result{
		ID:    "F24",
		Title: "Blockage-burst outage vs. re-beamforming latency",
		PaperClaim: "from Table 1 + §4.1: sub-17.6 ms blockage is absorbed by the beacon-loss " +
			"tolerance; longer bursts break the link and recovery costs a discovery cycle (~0.1-0.3 s)",
	}
	durs := []time.Duration{5 * time.Millisecond, 50 * time.Millisecond, 150 * time.Millisecond}
	if !o.Quick {
		durs = []time.Duration{
			5 * time.Millisecond, 10 * time.Millisecond, 25 * time.Millisecond,
			50 * time.Millisecond, 100 * time.Millisecond, 150 * time.Millisecond,
			250 * time.Millisecond, 400 * time.Millisecond,
		}
	}
	const onset = 600 * time.Millisecond

	type point struct {
		outage, recovery time.Duration
		breaks           int
		ok               bool
	}
	pts := make([]point, len(durs))

	par.Sweep(len(durs), func(i int) {
		sc := core.NewScenario(geom.Open(), o.Seed+uint64(i)*101)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + 1},
			wigig.Config{Name: "station", Pos: geom.V(2.5, 0), Seed: o.Seed + 2},
		)
		if err := fault.Install(sc.Med, fault.Blockage{
			Link: [2]string{"dock", "station"}, At: onset, Duration: durs[i], DepthDB: 80,
		}); err != nil {
			return
		}
		var brokeAt, reassocAt time.Duration
		l.Dock.OnStateChange = func(st wigig.State) {
			now := sc.Sched.Now()
			if now < onset {
				return
			}
			switch {
			case st != wigig.StateAssociated && brokeAt == 0:
				brokeAt = now
			case st == wigig.StateAssociated && brokeAt != 0 && reassocAt == 0:
				reassocAt = now
			}
		}
		if !l.WaitAssociated(sc.Sched, 500*time.Millisecond) {
			return
		}
		sc.Sched.Run(onset + durs[i] + 1500*time.Millisecond)
		p := point{ok: true, breaks: l.Dock.Stats.LinkBreaks}
		if brokeAt > 0 && reassocAt > 0 {
			p.outage = reassocAt - brokeAt
			if end := onset + durs[i]; reassocAt > end {
				p.recovery = reassocAt - end
			}
		}
		pts[i] = p
	})

	// The realignment path: a shallow 10 dB burst must be absorbed by
	// in-place re-training, never a link break.
	var shallowRealigns, shallowBreaks int
	shallowOK := func() bool {
		sc := core.NewScenario(geom.Open(), o.Seed+7777)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: o.Seed + 1},
			wigig.Config{Name: "station", Pos: geom.V(2.5, 0), Seed: o.Seed + 2},
		)
		if err := fault.Install(sc.Med, fault.Blockage{
			Link: [2]string{"dock", "station"}, At: onset, Duration: 200 * time.Millisecond, DepthDB: 10,
		}); err != nil {
			return false
		}
		if !l.WaitAssociated(sc.Sched, 500*time.Millisecond) {
			return false
		}
		sc.Sched.Run(onset + 200*time.Millisecond + 500*time.Millisecond)
		shallowRealigns = l.Dock.Stats.Realignments + l.Station.Stats.Realignments
		shallowBreaks = l.Dock.Stats.LinkBreaks
		return true
	}()

	setupOK := shallowOK
	for _, p := range pts {
		setupOK = setupOK && p.ok
	}
	if !setupOK {
		res.AddCheck("setup", "all faulted links associate", "failed", false)
		return res
	}

	outageS := core.Series{Label: "outage", XLabel: "burst ms", YLabel: "outage ms"}
	recoverS := core.Series{Label: "recovery", XLabel: "burst ms", YLabel: "re-beamforming latency ms"}
	for i, p := range pts {
		x := float64(durs[i]) / 1e6
		outageS.X = append(outageS.X, x)
		outageS.Y = append(outageS.Y, float64(p.outage)/1e6)
		recoverS.X = append(recoverS.X, x)
		recoverS.Y = append(recoverS.Y, float64(p.recovery)/1e6)
	}
	res.Series = append(res.Series, outageS, recoverS)

	first, last := pts[0], pts[len(pts)-1]
	res.CheckTrue("short burst absorbed",
		"no link break below the 17.6 ms beacon-loss limit", first.breaks == 0)
	res.CheckTrue("long burst breaks the link",
		"beacon-loss teardown", last.breaks >= 1 && last.outage > 0)
	maxRecovery := time.Duration(0)
	for _, p := range pts {
		if p.recovery > maxRecovery {
			maxRecovery = p.recovery
		}
	}
	res.CheckRange("re-beamforming latency after the burst clears",
		float64(maxRecovery)/1e6, 1, 600, "ms")
	res.CheckTrue("outage grows with burst length",
		"monotone over the broken bursts", last.outage >= durs[len(durs)-1]/2)
	res.CheckTrue("shallow burst realigns in place",
		"realignment without a break", shallowRealigns >= 1 && shallowBreaks == 0)
	res.Note("max recovery %.0f ms over %d burst lengths; shallow burst: %d realignments, %d breaks",
		float64(maxRecovery)/1e6, len(durs), shallowRealigns, shallowBreaks)
	return res
}
