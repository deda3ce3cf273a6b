package wigig

import (
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/sim"
)

// TestNAVDefersThirdParty verifies virtual carrier sensing: a third
// associated device that decodes an RTS addressed elsewhere must hold
// its own transmission for the announced duration.
func TestNAVDefersThirdParty(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 31)
	med.Budget.ShadowingSigmaDB = 0
	// Link 1 close to link 2's station so RTS/CTS are decodable across.
	l1 := NewLink(med,
		Config{Name: "dock1", Pos: geom.V(0, 0), Seed: 31},
		Config{Name: "sta1", Pos: geom.V(2, 0), Seed: 32},
	)
	l2 := NewLink(med,
		Config{Name: "dock2", Pos: geom.V(0, 1), Seed: 33},
		Config{Name: "sta2", Pos: geom.V(2, 1), Seed: 34},
	)
	if !l1.WaitAssociated(s, time.Second) || !l2.WaitAssociated(s, time.Second) {
		t.Fatal("association failed")
	}
	// Traffic on both links: NAV activity should register as CS defers
	// beyond pure energy detection.
	for i := 0; i < 200; i++ {
		l1.Station.Send(mac.MPDU{Bytes: 1500})
		l2.Station.Send(mac.MPDU{Bytes: 1500})
	}
	s.Run(s.Now() + 50*time.Millisecond)
	// Both links complete their transfers despite sharing the channel.
	if l1.Dock.Stats.MPDUsDelivered < 190 || l2.Dock.Stats.MPDUsDelivered < 190 {
		t.Errorf("deliveries: %d, %d", l1.Dock.Stats.MPDUsDelivered, l2.Dock.Stats.MPDUsDelivered)
	}
	// And the NAV field is populated on data frames.
	f := phy.Frame{Type: phy.FrameData, MCS: phy.MCS8, PayloadBytes: 1500, NAV: phy.AckDuration + 2*phy.SIFS}
	if f.NAV <= 0 {
		t.Error("NAV field missing")
	}
}

func TestSetTxPowerAffectsLink(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 35)
	med.Budget.ShadowingSigmaDB = 0
	l := NewLink(med,
		Config{Name: "dock", Pos: geom.V(0, 0), Seed: 35},
		Config{Name: "sta", Pos: geom.V(2, 0), Seed: 36},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	before := med.RxPowerDBm(l.Station.Radio(), l.Dock.Radio())
	l.Station.SetTxPowerDBm(-12)
	after := med.RxPowerDBm(l.Station.Radio(), l.Dock.Radio())
	if after > before-11 || after < before-13 {
		t.Errorf("power step: %v -> %v", before, after)
	}
	// The dock (which receives the weakened signal) adapts its MCS down.
	s.Run(s.Now() + 200*time.Millisecond)
	if l.Dock.CurrentMCS() >= phy.MCS11 {
		t.Errorf("dock MCS did not adapt down: %v", l.Dock.CurrentMCS())
	}
	if !l.Station.Associated() {
		t.Error("2 m link should survive a 12 dB back-off")
	}
}

func TestSetMaxAggAirCapsFrames(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 37)
	med.Budget.ShadowingSigmaDB = 0
	l := NewLink(med,
		Config{Name: "dock", Pos: geom.V(0, 0), Seed: 37},
		Config{Name: "sta", Pos: geom.V(2, 0), Seed: 38},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	l.Station.SetMaxAggAir(7 * time.Microsecond)
	var maxDur time.Duration
	probe := med.AddRadio(&sim.Radio{Name: "probe", Pos: geom.V(1, 0.4)})
	probe.Handler = sim.HandlerFunc(func(f phy.Frame, rx sim.Reception) {
		if f.Type == phy.FrameData && f.Src == l.Station.Radio().ID {
			if d := rx.End - rx.Start; d > maxDur {
				maxDur = d
			}
		}
	})
	for i := 0; i < 200; i++ {
		l.Station.Send(mac.MPDU{Bytes: 1500})
	}
	s.Run(s.Now() + 50*time.Millisecond)
	if maxDur == 0 {
		t.Fatal("no data observed")
	}
	if maxDur > 7*time.Microsecond+time.Nanosecond {
		t.Errorf("frame exceeded the 7 µs cap: %v", maxDur)
	}
	// Restore the default and confirm long frames return.
	l.Station.SetMaxAggAir(0)
	maxDur = 0
	for i := 0; i < 300; i++ {
		l.Station.Send(mac.MPDU{Bytes: 1500})
	}
	s.Run(s.Now() + 50*time.Millisecond)
	if maxDur < 10*time.Microsecond {
		t.Errorf("default cap not restored: max %v", maxDur)
	}
}

// TestRealignmentOnFade verifies the Fig. 14 mechanism in isolation: a
// sudden deep fade triggers re-training on both ends.
func TestRealignmentOnFade(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 39)
	med.Budget.ShadowingSigmaDB = 0
	l := NewLink(med,
		Config{Name: "dock", Pos: geom.V(0, 0), Seed: 39},
		Config{Name: "sta", Pos: geom.V(2.5, 0), Seed: 40},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	s.Run(s.Now() + 200*time.Millisecond) // settle the power reference
	med.SetLinkOffset(l.Dock.Radio().ID, l.Station.Radio().ID, -6)
	s.Run(s.Now() + 500*time.Millisecond)
	if l.Dock.Stats.Realignments+l.Station.Stats.Realignments == 0 {
		t.Error("a 6 dB fade triggered no realignment")
	}
	if !l.Dock.Associated() {
		t.Error("link should survive the fade")
	}
}

// TestDuplicateSuppression: a retransmitted aggregate whose original
// was delivered (ACK lost) must not deliver MPDUs twice.
func TestDuplicateSuppression(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 41)
	med.Budget.ShadowingSigmaDB = 0
	l := NewLink(med,
		Config{Name: "dock", Pos: geom.V(0, 0), Seed: 41},
		Config{Name: "sta", Pos: geom.V(2, 0), Seed: 42},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	delivered := 0
	sent := 0
	// Jam only the ACK direction occasionally by a radio near the
	// station (corrupting dock→station ACKs forces retransmissions of
	// already-delivered aggregates).
	jammer := med.AddRadio(&sim.Radio{Name: "jam", Pos: geom.V(2.2, 0.3), TxPowerDBm: 18})
	stop := false
	var jam func()
	jam = func() {
		if stop {
			return
		}
		med.Transmit(jammer, phy.Frame{Type: phy.FrameData, Src: jammer.ID, Dst: -1, MCS: phy.MCS8, PayloadBytes: 2000})
		s.After(30*time.Microsecond, jam)
	}
	s.After(0, jam)
	for i := 0; i < 100; i++ {
		sent++
		l.Station.Send(mac.MPDU{Bytes: 1500, OnDeliver: func(int64) { delivered++ }})
	}
	s.Run(s.Now() + 300*time.Millisecond)
	stop = true
	s.Run(s.Now() + 100*time.Millisecond)
	if delivered > sent {
		t.Errorf("duplicates delivered: %d > %d", delivered, sent)
	}
}
