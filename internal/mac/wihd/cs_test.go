package wihd

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/sim"
)

// TestCarrierSenseKnob: with sensing enabled, a strong foreign carrier
// makes the transmitter defer (the stock device never does — see
// TestNoCarrierSensing).
func TestCarrierSenseKnob(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 51)
	med.Budget.ShadowingSigmaDB = 0
	tx := NewDevice(med, Config{Name: "tx", Role: TX, Pos: geom.V(0, 0), Seed: 51, CarrierSense: true})
	rx := NewDevice(med, Config{Name: "rx", Role: RX, Pos: geom.V(8, 0), BoresightDeg: 180, Seed: 52})
	Connect(tx, rx)
	tx.SetStreaming(true)
	tx.Start()
	sys := &System{TX: tx, RX: rx}
	if !sys.WaitPaired(s, time.Second) {
		t.Fatal("no pairing")
	}
	// A strong intermittent carrier right next to the transmitter.
	blocker := med.AddRadio(&sim.Radio{Name: "carrier", Pos: geom.V(0.5, 0.3), TxPowerDBm: 20})
	stop := false
	var occupy func()
	occupy = func() {
		if stop {
			return
		}
		med.Transmit(blocker, phy.Frame{Type: phy.FrameData, Src: blocker.ID, Dst: -1, MCS: phy.MCS4, PayloadBytes: 20000})
		s.After(250*time.Microsecond, occupy)
	}
	s.After(0, occupy)
	s.Run(s.Now() + 100*time.Millisecond)
	stop = true
	if tx.Stats.CSDefers == 0 {
		t.Error("sensing transmitter never deferred")
	}
	// The stream must still make progress in the gaps.
	if rx.Stats.BytesDelivered == 0 {
		t.Error("no video delivered despite gaps")
	}
}

// TestCarrierSenseDefaultOff: the stock Air-3c ignores the channel.
func TestCarrierSenseDefaultOff(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 53)
	sys := NewSystem(med,
		Config{Name: "tx", Pos: geom.V(0, 0), Seed: 53},
		Config{Name: "rx", Pos: geom.V(8, 0), Seed: 54},
	)
	if !sys.WaitPaired(s, time.Second) {
		t.Fatal("no pairing")
	}
	blocker := med.AddRadio(&sim.Radio{Name: "carrier", Pos: geom.V(0.5, 0.3), TxPowerDBm: 20})
	stop := false
	var occupy func()
	occupy = func() {
		if stop {
			return
		}
		med.Transmit(blocker, phy.Frame{Type: phy.FrameData, Src: blocker.ID, Dst: -1, MCS: phy.MCS4, PayloadBytes: 20000})
		s.After(250*time.Microsecond, occupy)
	}
	s.After(0, occupy)
	s.Run(s.Now() + 100*time.Millisecond)
	stop = true
	if sys.TX.Stats.CSDefers != 0 {
		t.Errorf("stock WiHD deferred %d times", sys.TX.Stats.CSDefers)
	}
}

// Two carrier-sensing WiHD pairs side by side defer to each other's
// video and beacons. Once warmed, streaming through those deferrals
// allocates nothing: every wait runs on a recycled record with
// pre-bound callbacks. The count covers one whole measured run, so a
// single allocation anywhere in it fails the test.
func TestCarrierSenseStreamZeroAlloc(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 71)
	med.Budget.ShadowingSigmaDB = 0
	var systems []*System
	for k, y := range []float64{0, 0.8} {
		seed := uint64(71 + 2*k)
		systems = append(systems, NewSystem(med,
			Config{Pos: geom.V(0, y), Seed: seed, CarrierSense: true},
			Config{Pos: geom.V(6, y), Seed: seed + 1, CarrierSense: true},
		))
	}
	for k, sys := range systems {
		if !sys.WaitPaired(s, time.Second) {
			t.Fatalf("system %d did not pair", k)
		}
	}
	s.Run(s.Now() + 50*time.Millisecond)
	counts := func() (frames, videoDefers, beaconDefers int) {
		for _, sys := range systems {
			frames += sys.TX.Stats.FramesSent
			videoDefers += sys.TX.Stats.CSDefers
			beaconDefers += sys.RX.Stats.CSDefers
		}
		return
	}
	f0, v0, b0 := counts()
	allocs := testing.AllocsPerRun(1, func() { s.Run(s.Now() + 20*time.Millisecond) })
	f1, v1, b1 := counts()
	if allocs != 0 {
		t.Errorf("streaming %d frames through %d video and %d beacon deferrals allocated %v times, want 0",
			f1-f0, v1-v0, b1-b0, allocs)
	}
	if f1 == f0 || v1 == v0 || b1 == b0 {
		t.Fatalf("the measured run must send frames and defer both video and beacons: %d frames, %d video and %d beacon deferrals",
			f1-f0, v1-v0, b1-b0)
	}
}
