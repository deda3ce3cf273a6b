package sniffer

import (
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
)

// TestSubElementSweepSeparatesPatterns: two discovery sub-elements with
// very different patterns (a beam east and a beam west) must come back
// as distinguishable profiles.
func TestSubElementSweepSeparatesPatterns(t *testing.T) {
	s, med := testMedium(21)
	east := antenna.Horn{PeakGainDBi: 15, HPBWDeg: 25}
	west := antenna.Horn{PeakGainDBi: 15, HPBWDeg: 25}
	dut := med.AddRadio(&sim.Radio{Name: "dut", Pos: geom.V(0, 0), TxPowerDBm: 0})

	// A discovery-like sweep alternating two sub-element patterns.
	stop := false
	var sweep func()
	sweep = func() {
		if stop {
			return
		}
		dut.SetTxPattern(antenna.Oriented{Pattern: east, Boresight: geom.Rad(30)}.GainFunc())
		med.Transmit(dut, phy.Frame{Type: phy.FrameDiscovery, Src: dut.ID, Dst: -1, Meta: 0})
		s.After(30*time.Microsecond, func() {
			if stop {
				return
			}
			dut.SetTxPattern(antenna.Oriented{Pattern: west, Boresight: geom.Rad(-30)}.GainFunc())
			med.Transmit(dut, phy.Frame{Type: phy.FrameDiscovery, Src: dut.ID, Dst: -1, Meta: 1})
		})
		s.After(200*time.Microsecond, sweep)
	}
	s.After(0, sweep)

	sn := New(med, "vubiq", geom.V(3.2, 0), antenna.MeasurementHorn(), math.Pi)
	profs := sn.SubElementSweep(med, geom.V(0, 0), 3.2, 21, 2*time.Millisecond)
	stop = true
	if len(profs) != 2 {
		t.Fatalf("patterns = %d", len(profs))
	}
	p0, p1 := profs[0], profs[1]
	a0 := geom.Deg(p0.PeakAngle())
	a1 := geom.Deg(p1.PeakAngle())
	if math.Abs(a0-30) > 12 {
		t.Errorf("pattern 0 peak at %.0f°, want ≈30°", a0)
	}
	if math.Abs(a1+30) > 12 {
		t.Errorf("pattern 1 peak at %.0f°, want ≈-30°", a1)
	}
}

// TestMoveInvalidatesGeometry: after moving the sniffer, received power
// reflects the new position.
func TestMoveInvalidatesGeometry(t *testing.T) {
	s, med := testMedium(22)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(1, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(time.Millisecond)
	if len(rec.Obs) != 1 {
		t.Fatal("first capture missing")
	}
	near := rec.Obs[0].PowerDBm
	sn.Move(med, geom.V(8, 0))
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(s.Now() + time.Millisecond)
	if len(rec.Obs) != 2 {
		t.Fatal("second capture missing")
	}
	far := rec.Obs[1].PowerDBm
	// 1 m → 8 m is ≈18 dB of extra path loss.
	if near-far < 14 || near-far > 22 {
		t.Errorf("power step %v dB, want ≈18", near-far)
	}
}
