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

// The profile sweeps written the retained way: a Recorder keeps every
// observation and each dwell averages the slice it appended. They are
// the oracles the streaming sweeps in profile.go are checked against.

func retainedAngularProfile(s *Sniffer, rec *Recorder, med *sim.Medium, nSteps int, dwell sim.Time) AngularProfile {
	horn := antenna.MeasurementHorn()
	prof := AngularProfile{
		AnglesRad: make([]float64, nSteps),
		PowerDBm:  make([]float64, nSteps),
	}
	sched := med.Sched
	for i := 0; i < nSteps; i++ {
		theta := -math.Pi + 2*math.Pi*float64(i)/float64(nSteps)
		prof.AnglesRad[i] = theta
		s.SetPattern(horn, theta)
		mark := len(rec.Obs)
		sched.Run(sched.Now() + dwell)
		sumMw, n := 0.0, 0
		for _, o := range rec.Obs[mark:] {
			if o.Type == phy.FrameDiscovery {
				continue
			}
			sumMw += math.Pow(10, o.PowerDBm/10)
			n++
		}
		if n == 0 {
			prof.PowerDBm[i] = math.Inf(-1)
		} else {
			prof.PowerDBm[i] = 10 * math.Log10(sumMw/float64(n))
		}
	}
	return prof
}

func retainedSemicircleSweep(s *Sniffer, rec *Recorder, med *sim.Medium, center geom.Vec2, radius float64, nPos int, dwell sim.Time) AngularProfile {
	horn := antenna.MeasurementHorn()
	prof := AngularProfile{
		AnglesRad: make([]float64, nPos),
		PowerDBm:  make([]float64, nPos),
	}
	sched := med.Sched
	for i := 0; i < nPos; i++ {
		theta := -math.Pi/2 + math.Pi*float64(i)/float64(nPos-1)
		prof.AnglesRad[i] = theta
		s.Move(med, center.Add(geom.FromPolar(radius, theta)))
		s.SetPattern(horn, geom.NormalizeAngle(theta+math.Pi))
		mark := len(rec.Obs)
		sched.Run(sched.Now() + dwell)
		sumMw, n := 0.0, 0
		for _, o := range rec.Obs[mark:] {
			if o.Type != phy.FrameData {
				continue
			}
			sumMw += math.Pow(10, o.PowerDBm/10)
			n++
		}
		if n == 0 {
			prof.PowerDBm[i] = math.Inf(-1)
		} else {
			prof.PowerDBm[i] = 10 * math.Log10(sumMw/float64(n))
		}
	}
	return prof
}

func retainedSubElementSweep(s *Sniffer, rec *Recorder, med *sim.Medium, center geom.Vec2, radius float64, nPos int, dwell sim.Time) map[int]AngularProfile {
	horn := antenna.MeasurementHorn()
	sched := med.Sched
	profs := make(map[int]AngularProfile)
	for i := 0; i < nPos; i++ {
		theta := -math.Pi/2 + math.Pi*float64(i)/float64(nPos-1)
		s.Move(med, center.Add(geom.FromPolar(radius, theta)))
		s.SetPattern(horn, geom.NormalizeAngle(theta+math.Pi))
		mark := len(rec.Obs)
		sched.Run(sched.Now() + dwell)
		sums := map[int]float64{}
		counts := map[int]int{}
		for _, o := range rec.Obs[mark:] {
			if o.Type != phy.FrameDiscovery {
				continue
			}
			sums[o.Meta] += math.Pow(10, o.PowerDBm/10)
			counts[o.Meta]++
		}
		for meta, sum := range sums {
			p, ok := profs[meta]
			if !ok {
				p = AngularProfile{AnglesRad: make([]float64, nPos), PowerDBm: make([]float64, nPos)}
				for j := range p.PowerDBm {
					p.PowerDBm[j] = math.Inf(-1)
				}
			}
			p.PowerDBm[i] = 10 * math.Log10(sum/float64(counts[meta]))
			profs[meta] = p
		}
		for meta := range profs {
			profs[meta].AnglesRad[i] = theta
		}
	}
	return profs
}

// profileScene is a seeded room with fading on: a device under test
// emitting data, beacon and four-codeword discovery frames through
// different patterns, plus a peer answering with acknowledgements, so
// every sweep's filter sees frames it keeps and frames it drops.
func profileScene(seed uint64) (*sim.Medium, *Sniffer) {
	s := sim.NewScheduler()
	room := geom.Open()
	room.AddWall(geom.V(-10, 2), geom.V(10, 2), "metal")
	med := sim.NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), seed)
	dut := med.AddRadio(&sim.Radio{Name: "dut", Pos: geom.V(0, 0), TxPowerDBm: 5})
	peer := med.AddRadio(&sim.Radio{Name: "peer", Pos: geom.V(-2, 0.5), TxPowerDBm: 5})
	beam := antenna.Oriented{Pattern: antenna.Horn{PeakGainDBi: 15, HPBWDeg: 30}, Boresight: geom.Rad(20)}.GainFunc()
	var cycle func()
	k := 0
	cycle = func() {
		dut.SetTxPattern(beam)
		med.Transmit(dut, phy.Frame{Type: phy.FrameData, Src: dut.ID, Dst: peer.ID, MCS: phy.MCS8, PayloadBytes: 2000})
		s.After(20*time.Microsecond, func() {
			med.Transmit(peer, phy.Frame{Type: phy.FrameAck, Src: peer.ID, Dst: dut.ID, MCS: phy.MCS1})
		})
		s.After(40*time.Microsecond, func() {
			meta := k % 4
			dut.SetTxPattern(antenna.Oriented{Pattern: antenna.Horn{PeakGainDBi: 8, HPBWDeg: 60}, Boresight: geom.Rad(float64(45*meta - 60))}.GainFunc())
			med.Transmit(dut, phy.Frame{Type: phy.FrameDiscovery, Src: dut.ID, Dst: -1, Meta: meta})
			if k%3 == 0 {
				med.Transmit(peer, phy.Frame{Type: phy.FrameBeacon, Src: peer.ID, Dst: -1})
			}
			k++
		})
		s.After(90*time.Microsecond, cycle)
	}
	s.After(0, cycle)
	return med, New(med, "vubiq", geom.V(1.5, 0), antenna.MeasurementHorn(), math.Pi)
}

func sameProfile(t *testing.T, what string, got, want AngularProfile) {
	t.Helper()
	if len(got.PowerDBm) != len(want.PowerDBm) || len(got.AnglesRad) != len(want.AnglesRad) {
		t.Fatalf("%s: %d/%d points, want %d/%d", what, len(got.AnglesRad), len(got.PowerDBm), len(want.AnglesRad), len(want.PowerDBm))
	}
	finite := 0
	for i := range want.PowerDBm {
		if math.Float64bits(got.AnglesRad[i]) != math.Float64bits(want.AnglesRad[i]) ||
			math.Float64bits(got.PowerDBm[i]) != math.Float64bits(want.PowerDBm[i]) {
			t.Fatalf("%s[%d]: (%v, %v), want (%v, %v)", what, i,
				got.AnglesRad[i], got.PowerDBm[i], want.AnglesRad[i], want.PowerDBm[i])
		}
		if !math.IsInf(want.PowerDBm[i], -1) {
			finite++
		}
	}
	if finite == 0 {
		t.Fatalf("%s: no position heard anything; the comparison is vacuous", what)
	}
}

// TestProfileSweepsMatchRetained: the three streaming sweeps are
// bit-equal to the retained computation over the same seeded scene, and
// a sink the caller attached sees every frame and is restored after
// each sweep.
func TestProfileSweepsMatchRetained(t *testing.T) {
	const dwell = 2 * time.Millisecond
	center := geom.V(0, 0)

	med, sn := profileScene(5)
	var seen uint64
	caller := SinkFunc(func(Observation) error { seen++; return nil })
	sn.Sink = caller
	angular := sn.MeasureAngularProfile(med, 24, dwell)
	semi := sn.SemicircleSweep(med, center, 2.5, 9, dwell)
	sub := sn.SubElementSweep(med, center, 2.5, 9, dwell)
	if seen == 0 || seen != sn.Stats.Captured || sn.Stats.SinkDrops != 0 {
		t.Errorf("caller's sink saw %d of %d frames (drops %d)", seen, sn.Stats.Captured, sn.Stats.SinkDrops)
	}
	if sn.Sink == nil {
		t.Fatal("caller's sink not restored")
	}

	refMed, ref := profileScene(5)
	rec := &Recorder{}
	ref.Sink = rec
	sameProfile(t, "MeasureAngularProfile", angular, retainedAngularProfile(ref, rec, refMed, 24, dwell))
	sameProfile(t, "SemicircleSweep", semi, retainedSemicircleSweep(ref, rec, refMed, center, 2.5, 9, dwell))
	wantSub := retainedSubElementSweep(ref, rec, refMed, center, 2.5, 9, dwell)
	if len(sub) != len(wantSub) || len(sub) != 4 {
		t.Fatalf("SubElementSweep: %d codewords, want %d (and 4)", len(sub), len(wantSub))
	}
	for meta, want := range wantSub {
		sameProfile(t, "SubElementSweep codeword", sub[meta], want)
	}
	if uint64(len(rec.Obs)) != sn.Stats.Captured {
		t.Errorf("reference scene captured %d frames, streaming scene %d", len(rec.Obs), sn.Stats.Captured)
	}
}

// countSink is a streaming sink that keeps nothing.
type countSink struct{ n int }

func (c *countSink) Capture(Observation) error { c.n++; return nil }

// TestSnifferStreamingSinkZeroAlloc: with only a streaming sink
// attached, the sniffer delivers frames without allocating. The one
// measured run covers a whole batch of frames and AllocsPerRun reports
// its total, so even an amortized per-frame append (a retained history
// growing its slice now and then) shows up as a nonzero count.
func TestSnifferStreamingSinkZeroAlloc(t *testing.T) {
	s, med := testMedium(94)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	var sink countSink
	sn.Sink = &sink
	f := phy.Frame{Type: phy.FrameData, Src: tx.ID, Dst: -1, MCS: phy.MCS8, PayloadBytes: 1500}
	batch := func() {
		for i := 0; i < 1024; i++ {
			med.Transmit(tx, f)
			s.Run(s.Now() + 100*time.Microsecond)
		}
	}
	batch() // warm the medium's pools and the pair's channel entry
	if n := testing.AllocsPerRun(1, batch); n != 0 {
		t.Errorf("1024 captured frames allocate %.0f times, want 0", n)
	}
	if sink.n == 0 || uint64(sink.n) != sn.Stats.Captured {
		t.Fatalf("sink saw %d of %d captured frames", sink.n, sn.Stats.Captured)
	}
}
