package sim

import (
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/rf"
)

func TestSchedulerOrdering(t *testing.T) {
	s := NewScheduler()
	var got []int
	s.After(3*time.Millisecond, func() { got = append(got, 3) })
	s.After(1*time.Millisecond, func() { got = append(got, 1) })
	s.After(2*time.Millisecond, func() { got = append(got, 2) })
	s.Run(time.Second)
	if len(got) != 3 || got[0] != 1 || got[1] != 2 || got[2] != 3 {
		t.Errorf("order = %v", got)
	}
	if s.Now() != time.Second {
		t.Errorf("clock = %v, want advanced to horizon", s.Now())
	}
}

func TestSchedulerFIFOAtSameTime(t *testing.T) {
	s := NewScheduler()
	var got []int
	for i := 0; i < 10; i++ {
		i := i
		s.At(time.Millisecond, func() { got = append(got, i) })
	}
	s.Run(time.Second)
	for i, v := range got {
		if v != i {
			t.Fatalf("same-time events out of FIFO order: %v", got)
		}
	}
}

func TestSchedulerHorizon(t *testing.T) {
	s := NewScheduler()
	fired := false
	s.After(2*time.Second, func() { fired = true })
	s.Run(time.Second)
	if fired {
		t.Error("event beyond horizon fired")
	}
	s.Run(3 * time.Second)
	if !fired {
		t.Error("event not fired on extended run")
	}
}

func TestSchedulerCancel(t *testing.T) {
	s := NewScheduler()
	fired := false
	tm := s.After(time.Millisecond, func() { fired = true })
	if !tm.Active() {
		t.Error("Active() false before cancel")
	}
	tm.Cancel()
	if tm.Active() {
		t.Error("Active() true after cancel")
	}
	s.Run(time.Second)
	if fired {
		t.Error("canceled timer fired")
	}
}

// TestSchedulerCancelReleasesHeapSlot: canceled timers leave the event
// queue immediately instead of occupying it until their fire time, and
// Pending reports live events only.
func TestSchedulerCancelReleasesHeapSlot(t *testing.T) {
	s := NewScheduler()
	var timers []Timer
	for i := 1; i <= 10; i++ {
		timers = append(timers, s.After(Time(i)*time.Second, func() {}))
	}
	if s.Pending() != 10 {
		t.Fatalf("Pending = %d, want 10", s.Pending())
	}
	// Cancel from the middle, the head, and the tail of the heap.
	timers[4].Cancel()
	timers[0].Cancel()
	timers[9].Cancel()
	if s.Pending() != 7 {
		t.Errorf("Pending after 3 cancels = %d, want 7", s.Pending())
	}
	// Double-cancel must not remove someone else's slot.
	timers[4].Cancel()
	if s.Pending() != 7 {
		t.Errorf("Pending after double cancel = %d, want 7", s.Pending())
	}
	// The survivors still fire, in time order.
	fired := 0
	last := Time(-1)
	for _, tm := range timers {
		if !tm.Active() {
			continue
		}
		at := tm.At()
		tm.ev.fn = func() {
			fired++
			if at < last {
				t.Errorf("out-of-order fire at %v after %v", at, last)
			}
			last = at
		}
	}
	s.Run(time.Minute)
	if fired != 7 {
		t.Errorf("fired = %d, want 7", fired)
	}
	if s.Pending() != 0 {
		t.Errorf("Pending after run = %d", s.Pending())
	}
}

// TestSchedulerCancelDuringRun: canceling a queued timer from inside an
// event callback removes it before it fires.
func TestSchedulerCancelDuringRun(t *testing.T) {
	s := NewScheduler()
	fired := false
	victim := s.After(2*time.Millisecond, func() { fired = true })
	s.After(time.Millisecond, func() {
		victim.Cancel()
		if s.Pending() != 0 {
			t.Errorf("Pending inside callback = %d, want 0", s.Pending())
		}
	})
	s.Run(time.Second)
	if fired {
		t.Error("timer canceled mid-run still fired")
	}
}

func TestSchedulerNestedScheduling(t *testing.T) {
	s := NewScheduler()
	count := 0
	var tick func()
	tick = func() {
		count++
		if count < 5 {
			s.After(time.Millisecond, tick)
		}
	}
	s.After(time.Millisecond, tick)
	s.Run(time.Second)
	if count != 5 {
		t.Errorf("count = %d", count)
	}
}

func TestSchedulerStop(t *testing.T) {
	s := NewScheduler()
	count := 0
	s.After(time.Millisecond, func() { count++; s.Stop() })
	s.After(2*time.Millisecond, func() { count++ })
	s.Run(time.Second)
	if count != 1 {
		t.Errorf("count after Stop = %d", count)
	}
	// Resume.
	s.Run(time.Second)
	if count != 2 {
		t.Errorf("count after resume = %d", count)
	}
}

func TestSchedulerPastEvent(t *testing.T) {
	s := NewScheduler()
	s.Run(time.Second) // clock at 1 s
	fired := Time(0)
	s.At(0, func() { fired = s.Now() })
	s.Run(2 * time.Second)
	if fired != time.Second {
		t.Errorf("past event fired at %v, want clamped to now", fired)
	}
}

// mountHorns points horn patterns of a and b at each other, a facing +X.
func mountHorns(a, b *Radio, horn antenna.Horn) {
	ga := antenna.Oriented{Pattern: horn, Boresight: 0}.GainFunc()
	gb := antenna.Oriented{Pattern: horn, Boresight: math.Pi}.GainFunc()
	a.SetTxPattern(ga)
	a.SetRxPattern(ga)
	b.SetTxPattern(gb)
	b.SetRxPattern(gb)
}

// newTestMedium builds a two-radio open-space link d meters apart with
// 15 dBi horns facing each other, plus an isotropic observer if obs.
func newTestMedium(d float64, fading float64) (*Scheduler, *Medium, *Radio, *Radio) {
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 42)
	m.FadingSigmaDB = fading
	m.Budget.ShadowingSigmaDB = 0
	horn := antenna.Horn{PeakGainDBi: 15, HPBWDeg: 15}
	a := m.AddRadio(&Radio{Name: "a", Pos: geom.V(0, 0)})
	b := m.AddRadio(&Radio{Name: "b", Pos: geom.V(d, 0)})
	mountHorns(a, b, horn)
	return s, m, a, b
}

func TestMediumDelivery(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	var got []Reception
	var frames []phy.Frame
	b.Handler = HandlerFunc(func(f phy.Frame, rx Reception) {
		got = append(got, rx)
		frames = append(frames, f)
	})
	f := phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 1500}
	m.Transmit(a, f)
	s.Run(time.Second)
	if len(got) != 1 {
		t.Fatalf("deliveries = %d", len(got))
	}
	rx := got[0]
	if !rx.OK {
		t.Errorf("2 m frame should decode: %+v", rx)
	}
	if rx.Collided {
		t.Error("no interference expected")
	}
	if !math.IsInf(rx.InterferenceDBm, -1) {
		t.Errorf("interference = %v", rx.InterferenceDBm)
	}
	// Link budget sanity: 0 dBm + 30 dBi - FSPL(2m) ≈ -44 dBm.
	if rx.PowerDBm < -50 || rx.PowerDBm > -38 {
		t.Errorf("rx power = %v", rx.PowerDBm)
	}
	if frames[0].PayloadBytes != 1500 {
		t.Error("frame not passed through")
	}
	if rx.End-rx.Start != f.Duration() {
		t.Errorf("on-air time = %v, want %v", rx.End-rx.Start, f.Duration())
	}
}

func TestMediumListenFloor(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	calls := 0
	b.Handler = HandlerFunc(func(phy.Frame, Reception) { calls++ })
	b.ListenFloorDBm = 0 // absurdly high: hear nothing
	m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 1500})
	s.Run(time.Second)
	if calls != 0 {
		t.Error("frame below listen floor delivered")
	}
}

func TestMediumLongRangeFails(t *testing.T) {
	s, m, a, b := newTestMedium(40, 0)
	okCount, total := 0, 0
	b.Handler = HandlerFunc(func(f phy.Frame, rx Reception) {
		total++
		if rx.OK {
			okCount++
		}
	})
	for i := 0; i < 50; i++ {
		m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS11, PayloadBytes: 4500})
		s.Run(s.Now() + time.Millisecond)
	}
	if total == 0 {
		t.Skip("all frames below listen floor at 40 m")
	}
	if okCount > total/4 {
		t.Errorf("16-QAM at 40 m decoded %d/%d times", okCount, total)
	}
}

func TestMediumInterferenceCollision(t *testing.T) {
	// Two co-located transmitters at equal power: SINR ≈ 0 dB, data
	// frames must fail; without the interferer they succeed.
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 7)
	m.FadingSigmaDB = 0
	m.Budget.ShadowingSigmaDB = 0
	tx1 := m.AddRadio(&Radio{Name: "tx1", Pos: geom.V(0, 0.2), TxPowerDBm: 30})
	tx2 := m.AddRadio(&Radio{Name: "tx2", Pos: geom.V(0, -0.2), TxPowerDBm: 30})
	rx := m.AddRadio(&Radio{Name: "rx", Pos: geom.V(3, 0)})
	var recs []Reception
	rx.Handler = HandlerFunc(func(f phy.Frame, r Reception) {
		if f.Src == tx1.ID {
			recs = append(recs, r)
		}
	})

	// Clean transmission.
	m.Transmit(tx1, phy.Frame{Type: phy.FrameData, Src: tx1.ID, Dst: rx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
	s.Run(s.Now() + time.Millisecond)
	if len(recs) != 1 || !recs[0].OK || recs[0].Collided {
		t.Fatalf("clean frame: %+v", recs)
	}

	// Overlapping transmission.
	m.Transmit(tx1, phy.Frame{Type: phy.FrameData, Src: tx1.ID, Dst: rx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
	m.Transmit(tx2, phy.Frame{Type: phy.FrameData, Src: tx2.ID, Dst: rx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
	s.Run(s.Now() + time.Millisecond)
	if len(recs) != 2 {
		t.Fatalf("recs = %d", len(recs))
	}
	c := recs[1]
	if !c.Collided {
		t.Error("collision not flagged")
	}
	if c.OK {
		t.Error("0 dB SINR QPSK frame should not decode")
	}
	if c.SINRdB > 3 {
		t.Errorf("SINR = %v, want ≈0", c.SINRdB)
	}
}

func TestInterferenceFromEndedFrameStillCounts(t *testing.T) {
	// A short interferer that ends while a long frame is still on air
	// must still contribute interference to the long frame.
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 7)
	m.FadingSigmaDB = 0
	m.Budget.ShadowingSigmaDB = 0
	tx1 := m.AddRadio(&Radio{Name: "tx1", Pos: geom.V(0, 0.2), TxPowerDBm: 30})
	tx2 := m.AddRadio(&Radio{Name: "tx2", Pos: geom.V(0, -0.2), TxPowerDBm: 30})
	rx := m.AddRadio(&Radio{Name: "rx", Pos: geom.V(3, 0)})
	var long *Reception
	rx.Handler = HandlerFunc(func(f phy.Frame, r Reception) {
		if f.Src == tx1.ID {
			long = &r
		}
	})
	// Long frame: ~66 µs at MCS1. Short interferer: ~6 µs at MCS11.
	m.Transmit(tx1, phy.Frame{Type: phy.FrameData, Src: tx1.ID, Dst: rx.ID, MCS: phy.MCS1, PayloadBytes: 3000})
	m.Transmit(tx2, phy.Frame{Type: phy.FrameData, Src: tx2.ID, Dst: rx.ID, MCS: phy.MCS11, PayloadBytes: 1500})
	s.Run(s.Now() + time.Millisecond)
	if long == nil {
		t.Fatal("long frame not delivered")
	}
	if !long.Collided {
		t.Error("ended interferer not accounted")
	}
	if math.IsInf(long.InterferenceDBm, -1) {
		t.Error("interference power missing")
	}
}

func TestEnergyDetect(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	if m.Busy(b, -70) {
		t.Error("idle medium reported busy")
	}
	if !math.IsInf(m.EnergyDBm(b), -1) {
		t.Error("idle energy should be -Inf")
	}
	m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS4, PayloadBytes: 8000})
	// Probe mid-frame.
	busyDuring := false
	s.After(10*time.Microsecond, func() { busyDuring = m.Busy(b, -70) })
	s.Run(s.Now() + time.Second)
	if !busyDuring {
		t.Error("medium not busy during transmission")
	}
	if m.Busy(b, -70) {
		t.Error("medium busy after transmission ended")
	}
}

func TestOwnTransmissionNotSensed(t *testing.T) {
	s, m, a, _ := newTestMedium(2, 0)
	m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, MCS: phy.MCS4, PayloadBytes: 8000})
	sensed := true
	s.After(5*time.Microsecond, func() { sensed = m.Busy(a, -70) })
	s.Run(s.Now() + time.Second)
	if sensed {
		t.Error("radio sensed its own transmission")
	}
}

func TestChannelReciprocityAndCache(t *testing.T) {
	s, m, a, b := newTestMedium(3, 0)
	_ = s
	pab := m.RxPowerDBm(a, b)
	pba := m.RxPowerDBm(b, a)
	if math.Abs(pab-pba) > 1e-9 {
		t.Errorf("reciprocity violated: %v vs %v", pab, pba)
	}
	// Beam switch changes power without invalidating cache.
	b.SetRxPattern(nil) // isotropic now
	p2 := m.RxPowerDBm(a, b)
	if math.Abs(pab-p2) < 5 {
		t.Errorf("pattern change had no effect: %v vs %v", pab, p2)
	}
}

func TestExtraLoss(t *testing.T) {
	_, m, a, b := newTestMedium(3, 0)
	base := m.RxPowerDBm(a, b)
	m.ExtraLossDB = 7
	if got := m.RxPowerDBm(a, b); math.Abs(base-7-got) > 1e-9 {
		t.Errorf("extra loss not applied: %v -> %v", base, got)
	}
}

func TestFadingJitter(t *testing.T) {
	s, m, a, b := newTestMedium(2, 1.5)
	var powers []float64
	b.Handler = HandlerFunc(func(f phy.Frame, r Reception) { powers = append(powers, r.PowerDBm) })
	for i := 0; i < 200; i++ {
		m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 1500})
		s.Run(s.Now() + 100*time.Microsecond)
	}
	mean, varSum := 0.0, 0.0
	for _, p := range powers {
		mean += p
	}
	mean /= float64(len(powers))
	for _, p := range powers {
		varSum += (p - mean) * (p - mean)
	}
	sd := math.Sqrt(varSum / float64(len(powers)-1))
	if sd < 0.8 || sd > 2.5 {
		t.Errorf("fading sd = %v, want ≈1.5", sd)
	}
}

func TestBroadcastReachesAll(t *testing.T) {
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 3)
	m.FadingSigmaDB = 0
	tx := m.AddRadio(&Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	heard := map[string]bool{}
	for _, nm := range []string{"r1", "r2", "r3"} {
		nm := nm
		r := m.AddRadio(&Radio{Name: nm, Pos: geom.V(2, 0)})
		r.Pos = geom.V(2, float64(len(heard)))
		r.Handler = HandlerFunc(func(phy.Frame, Reception) { heard[nm] = true })
	}
	m.Transmit(tx, phy.Frame{Type: phy.FrameBeacon, Src: tx.ID, Dst: -1})
	s.Run(time.Second)
	if len(heard) != 3 {
		t.Errorf("broadcast heard by %d/3", len(heard))
	}
}

func TestInvalidateChannelsAfterMove(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	_ = s
	p1 := m.RxPowerDBm(a, b)
	// Move without invalidation: the cached geometry is intentionally
	// stale (documented contract).
	b.Pos = geom.V(8, 0)
	if got := m.RxPowerDBm(a, b); math.Abs(got-p1) > 1e-9 {
		t.Fatalf("cache unexpectedly refreshed: %v vs %v", got, p1)
	}
	m.InvalidateChannels()
	p2 := m.RxPowerDBm(a, b)
	// 2 m → 8 m is ≈12 dB.
	if p1-p2 < 10 || p1-p2 > 14 {
		t.Errorf("power step after move = %v dB", p1-p2)
	}
}

func TestSetLinkOffsetAffectsPower(t *testing.T) {
	_, m, a, b := newTestMedium(2, 0)
	base := m.RxPowerDBm(a, b)
	m.SetLinkOffset(a.ID, b.ID, -5)
	if got := m.RxPowerDBm(a, b); math.Abs(base-5-got) > 1e-9 {
		t.Errorf("offset not applied: %v -> %v", base, got)
	}
	// Symmetric by pair key.
	if got := m.RxPowerDBm(b, a); math.Abs(base-5-got) > 1e-9 {
		t.Errorf("offset not symmetric: %v", got)
	}
	if m.LinkOffset(a.ID, b.ID) != -5 {
		t.Errorf("LinkOffset = %v", m.LinkOffset(a.ID, b.ID))
	}
}

func TestZeroDurationFrameHarmless(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	got := 0
	b.Handler = HandlerFunc(func(phy.Frame, Reception) { got++ })
	// A frame with no payload still has preamble air time.
	m.Transmit(a, phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8})
	s.Run(time.Second)
	if got != 1 {
		t.Errorf("deliveries = %d", got)
	}
}
