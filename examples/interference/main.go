// Interference: the paper's Fig. 6 scenario — two WiGig links sharing a
// room with a blind WirelessHD video link on the same channel. Sweep the
// separation and watch link utilization rise as the WiHD system's wide
// beams and dense beacons collide with the WiGig transfers.
package main

import (
	"fmt"
	"time"

	"repro"
	"repro/internal/sniffer"
	"repro/internal/trace"
)

func main() {
	for _, d := range []float64{0.25, 0.5, 1.0, 1.5, 2.0, 3.0} {
		util, rate, retries := run(d)
		fmt.Printf("separation %.2f m: utilization %5.1f%%  dockB rate %4.0f Mbps  retries %d\n",
			d, util*100, rate/1e6, retries)
	}
}

func run(d float64) (util, rateBps float64, retries int) {
	sc := repro.NewScenario(repro.OpenSpace(), 99)

	linkA := sc.AddWiGigLink(
		repro.WiGigConfig{Name: "dockA", Pos: repro.XY(0, 0), BoresightDeg: 90},
		repro.WiGigConfig{Name: "laptopA", Pos: repro.XY(0, 6), BoresightDeg: -90},
	)
	linkB := sc.AddWiGigLink(
		repro.WiGigConfig{Name: "dockB", Pos: repro.XY(1, 0), BoresightDeg: 90},
		repro.WiGigConfig{Name: "laptopB", Pos: repro.XY(1, 6), BoresightDeg: -90},
	)
	if !linkA.WaitAssociated(sc.Sched, 2*time.Second) || !linkB.WaitAssociated(sc.Sched, 2*time.Second) {
		panic("WiGig links failed to associate")
	}
	// The interferer: a WiHD video link at horizontal offset d, its
	// receiver 8 m away on a diagonal.
	wihd := sc.AddWiHD(
		repro.WiHDConfig{Name: "hdmi-tx", Pos: repro.XY(1+d, -0.3)},
		repro.WiHDConfig{Name: "hdmi-rx", Pos: repro.XY(1+d+2.5, 7.3)},
	)
	if !wihd.WaitPaired(sc.Sched, 2*time.Second) {
		panic("WiHD failed to pair")
	}

	// The sniffer measures busy air time as frames are captured, from
	// the moment the flows start.
	sn := sc.AddSniffer("vubiq", repro.XY(1.4, 0.2), nil, 0)
	busy := trace.NewBusyMeter(busyThreshold, 0)
	busy.From = sc.Now()
	sn.Sink = busy
	sn.SinkOnly = true
	fa := repro.NewFlow(sc, linkA.Station, linkA.Dock, repro.FlowConfig{PacingBps: 220e6})
	fb := repro.NewFlow(sc, linkB.Station, linkB.Dock, repro.FlowConfig{PacingBps: 220e6})
	fa.Start()
	fb.Start()

	sc.Run(time.Second)
	return busy.Ratio(sc.Now()), linkB.Dock.RateBps(), linkB.Station.Stats.Retries
}

// busyThreshold mirrors the paper's threshold-based idle-time detection.
var busyThreshold = sniffer.AmplitudeFromPower(-72)
