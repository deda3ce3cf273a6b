// Quickstart: bring up a simulated D5000 WiGig link, run an iperf-style
// TCP transfer across it, and read the frame-level measurements a
// Vubiq-style sniffer collects alongside — the whole toolchain of the
// paper in thirty lines of API.
package main

import (
	"fmt"
	"math"
	"time"

	"repro"
	"repro/internal/sniffer"
	"repro/internal/stats"
	"repro/internal/trace"
)

func main() {
	// An open space (no reflections), seeded for reproducibility.
	sc := repro.NewScenario(repro.OpenSpace(), 42)

	// A docking station at the origin and a laptop 2 m away. They face
	// each other by default, discover, train beams, and associate.
	link := sc.AddWiGigLink(
		repro.WiGigConfig{Name: "dock", Pos: repro.XY(0, 0)},
		repro.WiGigConfig{Name: "laptop", Pos: repro.XY(2, 0)},
	)
	if !link.WaitAssociated(sc.Sched, time.Second) {
		panic("link did not associate")
	}
	fmt.Printf("associated: dock sector %d, laptop sector %d, PHY rate %s\n",
		link.Dock.Sector(), link.Station.Sector(), link.Dock.CurrentMCS())

	// A measurement receiver overhearing the link with an open waveguide.
	// The analyses fold each frame in as it is captured, so the capture
	// itself is not retained: data-frame lengths and 1 ms occupancy.
	sn := sc.AddSniffer("vubiq", repro.XY(1, 0.4), repro.OpenWaveguide(), -math.Pi/2)
	var data trace.DataSampler
	occupancy := trace.NewOccupancyMeter(0, time.Millisecond)
	sn.Sink = sniffer.Tee(&data, occupancy)

	// An iperf TCP flow laptop → dock, fed through a Gigabit Ethernet
	// bottleneck like the paper's testbed.
	flow := repro.NewFlow(sc, link.Station, link.Dock, repro.FlowConfig{PacingBps: 940e6})
	flow.Start()
	sc.Run(2 * time.Second)

	fmt.Printf("TCP goodput: %.0f Mbps (retransmits %d)\n",
		flow.GoodputBps()/1e6, flow.Retransmits)

	// Frame-level analysis, the paper's methodology: frame-length CDF,
	// long-frame fraction, medium occupancy.
	cdf := stats.NewCDF(data.LengthsUs)
	fmt.Printf("data frames: %d, median length %.1f µs, long-frame share %.0f%%\n",
		cdf.N(), cdf.Quantile(0.5), 100*data.LongFraction())
	fmt.Printf("medium usage: %.0f%% of 1 ms windows contain data frames\n", occupancy.Occupancy(sc.Now())*100)
}
