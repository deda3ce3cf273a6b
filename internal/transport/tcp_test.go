package transport

import (
	"math"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/mac/wigig"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeLink is a lossy, delayed point-to-point MAC for unit-testing the
// TCP machinery in isolation.
type fakeLink struct {
	sched   *sim.Scheduler
	delay   time.Duration
	lossP   float64
	rng     *stats.RNG
	queue   int
	maxQ    int
	rateBps float64
	busyTo  sim.Time
}

func newFakeLink(s *sim.Scheduler, delay time.Duration, lossP float64, seed uint64) *fakeLink {
	return &fakeLink{sched: s, delay: delay, lossP: lossP, rng: stats.NewRNG(seed), maxQ: 1 << 20, rateBps: 1e9}
}

func (l *fakeLink) Send(m mac.MPDU) bool {
	if l.queue >= l.maxQ {
		return false
	}
	l.queue++
	// Serialization: FIFO at rateBps.
	ser := time.Duration(float64(m.Bytes*8) / l.rateBps * float64(time.Second))
	start := l.sched.Now()
	if l.busyTo > start {
		start = l.busyTo
	}
	l.busyTo = start + ser
	deliverAt := l.busyTo + l.delay
	drop := l.rng.Bool(l.lossP)
	l.sched.At(deliverAt, func() {
		l.queue--
		if !drop {
			m.Deliver()
		}
	})
	return true
}

func TestFlowDeliversAll(t *testing.T) {
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 100*time.Microsecond, 0, 1)
	rev := newFakeLink(s, 100*time.Microsecond, 0, 2)
	done := false
	f := NewFlow(s, fwd, rev, Config{TotalBytes: 1 << 20})
	f.OnComplete = func() { done = true }
	f.Start()
	s.Run(10 * time.Second)
	if !done {
		t.Fatalf("transfer incomplete: delivered=%d", f.Delivered)
	}
	if f.Delivered < 1<<20 {
		t.Errorf("delivered = %d", f.Delivered)
	}
	if f.Retransmits != 0 || f.Timeouts != 0 {
		t.Errorf("lossless link saw retx=%d timeouts=%d", f.Retransmits, f.Timeouts)
	}
}

func TestFlowThroughputMatchesLinkRate(t *testing.T) {
	// On a 1 Gbps fake link with small RTT, a backlogged flow should
	// approach link rate (MSS/SegmentWire efficiency ≈ 96.5%).
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 50*time.Microsecond, 0, 3)
	rev := newFakeLink(s, 50*time.Microsecond, 0, 4)
	f := NewFlow(s, fwd, rev, Config{})
	f.Start()
	s.Run(2 * time.Second)
	g := f.GoodputBps()
	if g < 0.80e9 || g > 1.0e9 {
		t.Errorf("goodput = %.0f Mbps, want ≈930", g/1e6)
	}
}

func TestPacingCap(t *testing.T) {
	// With a 100 Mbps application pacing cap on a 1 Gbps link, goodput
	// must track the cap.
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 50*time.Microsecond, 0, 5)
	rev := newFakeLink(s, 50*time.Microsecond, 0, 6)
	f := NewFlow(s, fwd, rev, Config{PacingBps: 100e6})
	f.Start()
	s.Run(2 * time.Second)
	g := f.GoodputBps()
	if g < 85e6 || g > 105e6 {
		t.Errorf("paced goodput = %.1f Mbps, want ≈96", g/1e6)
	}
}

func TestWindowLimitsThroughput(t *testing.T) {
	// Tiny windows throttle throughput: the paper's footnote-3 method of
	// producing kbps-scale loads with a ≈1 KB window.
	s := sim.NewScheduler()
	delay := 5 * time.Millisecond
	fwd := newFakeLink(s, delay, 0, 7)
	rev := newFakeLink(s, delay, 0, 8)
	f := NewFlow(s, fwd, rev, Config{Window: 1500})
	f.Start()
	s.Run(5 * time.Second)
	// One segment per RTT ≈ 1448 B / 10 ms ≈ 1.16 Mbps.
	g := f.GoodputBps()
	want := float64(MSS*8) / (2 * delay.Seconds()) / 2 // within 2x
	if g > 3*want || g < want/3 {
		t.Errorf("window-limited goodput = %.2f Mbps, want ≈%.2f", g/1e6, 2*want/1e6)
	}
	// And it must be far below the unconstrained case.
	if g > 20e6 {
		t.Errorf("window did not throttle: %.1f Mbps", g/1e6)
	}
}

func TestLossRecovery(t *testing.T) {
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 200*time.Microsecond, 0.02, 9)
	rev := newFakeLink(s, 200*time.Microsecond, 0, 10)
	done := false
	f := NewFlow(s, fwd, rev, Config{TotalBytes: 2 << 20})
	f.OnComplete = func() { done = true }
	f.Start()
	s.Run(30 * time.Second)
	if !done {
		t.Fatalf("transfer with loss incomplete: delivered=%d retx=%d timeouts=%d",
			f.Delivered, f.Retransmits, f.Timeouts)
	}
	if f.Retransmits == 0 && f.Timeouts == 0 {
		t.Error("2% loss produced no recoveries")
	}
}

func TestAckLossRecovery(t *testing.T) {
	// Losing ACKs must not wedge the flow.
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 200*time.Microsecond, 0, 11)
	rev := newFakeLink(s, 200*time.Microsecond, 0.05, 12)
	done := false
	f := NewFlow(s, fwd, rev, Config{TotalBytes: 1 << 20})
	f.OnComplete = func() { done = true }
	f.Start()
	s.Run(30 * time.Second)
	if !done {
		t.Fatalf("transfer with ACK loss incomplete: delivered=%d", f.Delivered)
	}
}

func TestIperfSampling(t *testing.T) {
	s := sim.NewScheduler()
	fwd := newFakeLink(s, 50*time.Microsecond, 0, 13)
	rev := newFakeLink(s, 50*time.Microsecond, 0, 14)
	ip := NewIperf(s, fwd, rev, Config{}, 100*time.Millisecond)
	ip.Start()
	s.Run(time.Second)
	if len(ip.Samples) < 8 {
		t.Fatalf("samples = %d", len(ip.Samples))
	}
	avg := ip.AverageBps()
	if math.Abs(avg-ip.Flow.GoodputBps()) > 0.2*avg {
		t.Errorf("sample average %.0f vs goodput %.0f", avg, ip.Flow.GoodputBps())
	}
	ip.Stop()
	n := len(ip.Samples)
	s.Run(s.Now() + time.Second)
	if len(ip.Samples) != n {
		t.Error("sampling continued after Stop")
	}
}

// End-to-end: TCP over the real WiGig MAC at 2 m with GbE pacing should
// deliver the paper's ≈900 Mbps plateau (Fig. 13, short range).
func TestTCPOverWiGig(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 21)
	med.Budget.ShadowingSigmaDB = 0
	l := wigig.NewLink(med,
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 21},
		wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: 22},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	f := NewFlow(s, l.Station, l.Dock, Config{PacingBps: EthernetGoodputBps})
	f.Start()
	s.Run(s.Now() + 2*time.Second)
	// Calibration target (DESIGN.md): Gigabit Ethernet caps end-to-end
	// iperf at ≈940 Mbps. A 2 m link has air rate to spare, so goodput
	// must sit within 1% below the cap and never above it.
	g := f.GoodputBps()
	if g < 0.99*EthernetGoodputBps || g > EthernetGoodputBps {
		t.Errorf("TCP over WiGig at 2 m = %.2f Mbps, want within 1%% below the %.0f Mbps Ethernet cap",
			g/1e6, EthernetGoodputBps/1e6)
	}
}

// Low-load sanity: a 1500-byte window yields kbps–Mbps scale throughput,
// far below saturation (paper's Fig. 9 lowest curves).
func TestTCPTinyWindowOverWiGig(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 23)
	med.Budget.ShadowingSigmaDB = 0
	l := wigig.NewLink(med,
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 23},
		wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: 24},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	f := NewFlow(s, l.Station, l.Dock, Config{Window: 1500})
	f.Start()
	s.Run(s.Now() + 2*time.Second)
	g := f.GoodputBps()
	if g <= 0 {
		t.Fatal("no data flowed")
	}
	if g > 100e6 {
		t.Errorf("tiny window still fast: %.1f Mbps", g/1e6)
	}
}

// File-transfer mode over the real MAC: the Fig. 22 methodology measures
// the time to move a fixed-size file; completion must fire exactly once
// and account for every byte.
func TestFileTransferOverWiGig(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 31)
	med.Budget.ShadowingSigmaDB = 0
	l := wigig.NewLink(med,
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 31},
		wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: 32},
	)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	const size = 8 << 20 // 8 MB
	completions := 0
	var doneAt sim.Time
	f := NewFlow(s, l.Station, l.Dock, Config{TotalBytes: size, PacingBps: EthernetGoodputBps})
	f.OnComplete = func() { completions++; doneAt = s.Now() }
	start := s.Now()
	f.Start()
	s.Run(s.Now() + 3*time.Second)
	if completions != 1 {
		t.Fatalf("completions = %d (delivered %d)", completions, f.Delivered)
	}
	if f.Delivered < size {
		t.Errorf("delivered %d < %d", f.Delivered, size)
	}
	// 8 MB at ≈900 Mbps is ≈75 ms.
	el := (doneAt - start).Seconds()
	if el < 0.05 || el > 0.5 {
		t.Errorf("transfer time = %.3f s", el)
	}
}
