package sniffer

import (
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rf"
	"repro/internal/sim"
)

func testMedium(seed uint64) (*sim.Scheduler, *sim.Medium) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), seed)
	med.FadingSigmaDB = 0
	med.Budget.ShadowingSigmaDB = 0
	return s, med
}

// record attaches a Recorder as the sniffer's sink.
func record(sn *Sniffer) *Recorder {
	rec := &Recorder{}
	sn.Sink = rec
	return rec
}

func TestSnifferRecordsFrames(t *testing.T) {
	s, med := testMedium(1)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, Dst: -1, MCS: phy.MCS8, PayloadBytes: 3000, MPDUs: 2})
	s.Run(time.Second)
	if len(rec.Obs) != 1 || sn.Stats.Captured != 1 {
		t.Fatalf("observations = %d, captured = %d", len(rec.Obs), sn.Stats.Captured)
	}
	o := rec.Obs[0]
	if o.Type != phy.FrameData || o.MPDUs != 2 || o.Src != tx.ID {
		t.Errorf("observation = %+v", o)
	}
	if o.Duration() != phy.MCS8.FrameDuration(3000) {
		t.Errorf("duration = %v", o.Duration())
	}
	if o.AmplitudeV <= 0 {
		t.Error("amplitude not positive")
	}
}

func TestSnifferSensitivity(t *testing.T) {
	s, med := testMedium(2)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: -10})
	sn := New(med, "vubiq", geom.V(4, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(time.Second)
	if len(rec.Obs) != 0 {
		t.Errorf("weak frame recorded: %+v", rec.Obs)
	}
	// Gain offset rescues it (the paper's +10 dB receiver gain trick).
	sn.GainOffsetDB = 10
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(s.Now() + time.Second)
	if len(rec.Obs) != 1 {
		t.Errorf("gain offset did not rescue: %d", len(rec.Obs))
	}
}

func TestAmplitudeMapping(t *testing.T) {
	if v := AmplitudeFromPower(referencePowerDBm); math.Abs(v-1) > 1e-12 {
		t.Errorf("reference amplitude = %v", v)
	}
	// +6 dB doubles amplitude (20·log10 scale).
	r := AmplitudeFromPower(referencePowerDBm+6.02) / AmplitudeFromPower(referencePowerDBm)
	if math.Abs(r-2) > 0.01 {
		t.Errorf("6 dB ratio = %v", r)
	}
}

func TestCapturingToggleAndReset(t *testing.T) {
	s, med := testMedium(3)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	sn.Capturing = false
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(time.Second)
	if len(rec.Obs) != 0 || sn.Stats.Captured != 0 {
		t.Error("captured while disabled")
	}
	sn.Capturing = true
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(s.Now() + time.Second)
	if len(rec.Obs) != 1 || sn.Stats.Captured != 1 {
		t.Fatal("capture did not resume")
	}
	sn.Reset()
	if sn.Stats != (CaptureStats{}) || sn.Sink != Sink(rec) {
		t.Errorf("Reset must clear the counters and keep the sink: %+v", sn.Stats)
	}
}

func TestWindowSorted(t *testing.T) {
	s, med := testMedium(4)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	for i := 0; i < 5; i++ {
		at := sim.Time(i) * time.Millisecond
		s.At(at, func() {
			med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
		})
	}
	s.Run(time.Second)
	w := rec.Window(500*time.Microsecond, 3500*time.Microsecond)
	if len(w) != 3 {
		t.Fatalf("window frames = %d, want 3", len(w))
	}
	for i := 1; i < len(w); i++ {
		if w[i].Start < w[i-1].Start {
			t.Error("window not sorted")
		}
	}
}

func TestEnvelope(t *testing.T) {
	s, med := testMedium(5)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	s.At(100*time.Microsecond, func() {
		med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 6000})
	})
	s.Run(time.Millisecond)
	env := rec.Envelope(0, 200*time.Microsecond, 10e6) // 10 MS/s → 2000 samples
	if len(env) != 2000 {
		t.Fatalf("samples = %d", len(env))
	}
	// Idle before 100 µs, busy after.
	if env[500] != 0 {
		t.Errorf("pre-frame sample = %v", env[500])
	}
	if env[1100] <= 0 {
		t.Errorf("in-frame sample = %v", env[1100])
	}
}

func TestHornVsWaveguideSelectivity(t *testing.T) {
	// A horn pointed away from the transmitter must hear far less than
	// the open waveguide.
	s, med := testMedium(6)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	horn := New(med, "horn", geom.V(2, 0), antenna.MeasurementHorn(), 0) // pointing +X, away
	wg := New(med, "wg", geom.V(2, 0.01), antenna.OpenWaveguide(), math.Pi)
	hornRec, wgRec := record(horn), record(wg)
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1000})
	s.Run(time.Second)
	if len(wgRec.Obs) != 1 {
		t.Fatal("waveguide missed the frame")
	}
	if len(hornRec.Obs) == 1 && hornRec.Obs[0].PowerDBm > wgRec.Obs[0].PowerDBm-20 {
		t.Errorf("misaimed horn too loud: %v vs %v", hornRec.Obs[0].PowerDBm, wgRec.Obs[0].PowerDBm)
	}
}

func TestAngularProfileLobes(t *testing.T) {
	p := AngularProfile{
		AnglesRad: []float64{-math.Pi, -math.Pi / 2, 0, math.Pi / 2},
		PowerDBm:  []float64{-60, -45, -40, -58},
	}
	if got := p.PeakAngle(); got != 0 {
		t.Errorf("PeakAngle = %v", got)
	}
	if got := p.PeakDBm(); got != -40 {
		t.Errorf("PeakDBm = %v", got)
	}
	n := p.Normalized()
	if n[2] != 0 || n[1] != -5 {
		t.Errorf("Normalized = %v", n)
	}
	lobes := p.Lobes(-8)
	if len(lobes) != 1 || lobes[0] != 0 {
		t.Errorf("Lobes = %v", lobes)
	}
	if !p.HasLobeTowards(0.1, 0.2, -8) {
		t.Error("HasLobeTowards missed")
	}
	if p.HasLobeTowards(math.Pi, 0.2, -8) {
		t.Error("HasLobeTowards false positive")
	}
}

func TestMeasureAngularProfileFindsTransmitter(t *testing.T) {
	// A transmitter due east; the rotating horn must localize it.
	s, med := testMedium(7)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(3, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(0, 0), antenna.MeasurementHorn(), 0)
	stop := false
	var emit func()
	emit = func() {
		if stop {
			return
		}
		med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 3000})
		s.After(50*time.Microsecond, emit)
	}
	s.After(0, emit)
	prof := sn.MeasureAngularProfile(med, 72, 2*time.Millisecond)
	stop = true
	if math.Abs(geom.AngleDiff(prof.PeakAngle(), 0)) > geom.Rad(10) {
		t.Errorf("peak at %v°, want ≈0°", geom.Deg(prof.PeakAngle()))
	}
	if !prof.HasLobeTowards(0, geom.Rad(10), -8) {
		t.Error("no lobe towards the transmitter")
	}
}

func TestMeasureAngularProfileSeesReflection(t *testing.T) {
	// Transmitter east, metal wall north: the profile must include a
	// second lobe towards the wall's reflection point.
	s, med := testMediumWithRoom(8)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(3, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(0, 0), antenna.MeasurementHorn(), 0)
	stop := false
	var emit func()
	emit = func() {
		if stop {
			return
		}
		med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 3000})
		s.After(50*time.Microsecond, emit)
	}
	s.After(0, emit)
	prof := sn.MeasureAngularProfile(med, 72, 2*time.Millisecond)
	stop = true
	// LOS lobe towards 0°, reflected lobe towards the mirror point
	// (1.5, 1) ⇒ atan2(1, 1.5) ≈ 33.7°.
	if !prof.HasLobeTowards(0, geom.Rad(10), -8) {
		t.Error("LOS lobe missing")
	}
	reflDir := geom.V(1.5, 1).Angle()
	if !prof.HasLobeTowards(reflDir, geom.Rad(12), -12) {
		t.Errorf("reflection lobe missing towards %.0f°; lobes at %v",
			geom.Deg(reflDir), degs(prof.Lobes(-12)))
	}
}

func testMediumWithRoom(seed uint64) (*sim.Scheduler, *sim.Medium) {
	s := sim.NewScheduler()
	room := geom.Open()
	room.AddWall(geom.V(-10, 1), geom.V(10, 1), "metal")
	med := sim.NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), seed)
	med.FadingSigmaDB = 0
	med.Budget.ShadowingSigmaDB = 0
	return s, med
}

func degs(rads []float64) []float64 {
	out := make([]float64, len(rads))
	for i, r := range rads {
		out[i] = geom.Deg(r)
	}
	return out
}

func TestSemicircleSweepMeasuresPattern(t *testing.T) {
	// A horn transmitter facing +X measured on the semicircle: the
	// sweep's peak position must be near 0° and the profile must fall
	// off the boresight.
	s, med := testMedium(9)
	horn := antenna.Horn{PeakGainDBi: 15, HPBWDeg: 20}
	tx := med.AddRadio(&sim.Radio{Name: "dut", Pos: geom.V(0, 0), TxPowerDBm: 0})
	tx.SetTxPattern(antenna.Oriented{Pattern: horn, Boresight: 0}.GainFunc())
	sn := New(med, "vubiq", geom.V(3.2, 0), antenna.MeasurementHorn(), math.Pi)
	stop := false
	var emit func()
	emit = func() {
		if stop {
			return
		}
		med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 3000})
		s.After(50*time.Microsecond, emit)
	}
	s.After(0, emit)
	prof := sn.SemicircleSweep(med, geom.V(0, 0), 3.2, 33, time.Millisecond)
	stop = true
	if math.Abs(prof.PeakAngle()) > geom.Rad(8) {
		t.Errorf("pattern peak at %v°", geom.Deg(prof.PeakAngle()))
	}
	// Off-boresight positions read much weaker.
	norm := prof.Normalized()
	if norm[0] > -10 {
		t.Errorf("edge of semicircle reads %v dB, want ≤ -10", norm[0])
	}
}
