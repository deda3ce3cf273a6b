package repro_test

import (
	"testing"
	"time"

	"repro"
)

// TestFacadeEndToEnd exercises the public API exactly as the README's
// example does: scenario, link, flow, sniffer.
func TestFacadeEndToEnd(t *testing.T) {
	sc := repro.NewScenario(repro.OpenSpace(), 42)
	link := sc.AddWiGigLink(
		repro.WiGigConfig{Name: "dock", Pos: repro.XY(0, 0)},
		repro.WiGigConfig{Name: "laptop", Pos: repro.XY(2, 0)},
	)
	if !link.WaitAssociated(sc.Sched, time.Second) {
		t.Fatal("no association through the facade")
	}
	sn := sc.AddSniffer("vubiq", repro.XY(1, 0.4), repro.OpenWaveguide(), 0)
	flow := repro.NewFlow(sc, link.Station, link.Dock, repro.FlowConfig{PacingBps: 500e6})
	flow.Start()
	sc.Run(300 * time.Millisecond)
	if flow.GoodputBps() < 300e6 {
		t.Errorf("goodput = %.0f Mbps", flow.GoodputBps()/1e6)
	}
	if sn.Stats.Captured == 0 {
		t.Error("sniffer captured nothing")
	}
}

func TestFacadeConferenceRoom(t *testing.T) {
	room := repro.ConferenceRoom()
	if len(room.Walls) != 5 {
		t.Errorf("walls = %d", len(room.Walls))
	}
	if b := repro.DefaultLinkBudget(); b.BandwidthHz != 1.76e9 {
		t.Errorf("bandwidth = %v", b.BandwidthHz)
	}
	if h := repro.MeasurementHorn(); h.PeakGainDBi != 25 {
		t.Errorf("horn gain = %v", h.PeakGainDBi)
	}
}

func TestFacadeExperimentRegistry(t *testing.T) {
	all := repro.Experiments()
	if len(all) < 25 { // 19 paper artifacts + 6 ablations
		t.Fatalf("registered experiments = %d", len(all))
	}
	// Presentation order: Table first, figures ascending, ablations last.
	if all[0].ID != "T1" {
		t.Errorf("first experiment = %s", all[0].ID)
	}
	if _, ok := repro.LookupExperiment("F9"); !ok {
		t.Error("F9 missing")
	}
	if _, ok := repro.LookupExperiment("F999"); ok {
		t.Error("phantom experiment found")
	}
	// A cheap experiment runs through the facade.
	r, _ := repro.LookupExperiment("A1")
	res := r.Run(repro.QuickExperimentOptions())
	if !res.Pass() {
		t.Errorf("A1 via facade failed:\n%s", res)
	}
}

func TestFacadeWiHD(t *testing.T) {
	sc := repro.NewScenario(repro.OpenSpace(), 9)
	sys := sc.AddWiHD(
		repro.WiHDConfig{Name: "tx", Pos: repro.XY(0, 0)},
		repro.WiHDConfig{Name: "rx", Pos: repro.XY(8, 0)},
	)
	if !sys.WaitPaired(sc.Sched, time.Second) {
		t.Fatal("no pairing through the facade")
	}
	sc.Run(100 * time.Millisecond)
	if sys.RX.Stats.BytesDelivered == 0 {
		t.Error("no video delivered")
	}
}

func TestFacadeCoexist(t *testing.T) {
	an := repro.NewCoexistAnalyzer(repro.OpenSpace())
	links := []repro.CoexistLink{
		{Name: "a", A: repro.CoexistEndpoint{Pos: repro.XY(0, 0), BoresightDeg: 90},
			B: repro.CoexistEndpoint{Pos: repro.XY(0, 6), BoresightDeg: -90}},
		{Name: "b", A: repro.CoexistEndpoint{Pos: repro.XY(0.5, 0), BoresightDeg: 90},
			B: repro.CoexistEndpoint{Pos: repro.XY(0.5, 6), BoresightDeg: -90}},
	}
	cs, err := an.Analyze(links)
	if err != nil {
		t.Fatal(err)
	}
	assign, _ := repro.AssignChannels(len(links), cs, 2)
	if assign[0] == assign[1] {
		t.Errorf("close pair share a channel: %v", assign)
	}
}
