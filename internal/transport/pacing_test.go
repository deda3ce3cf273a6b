package transport

import (
	"testing"
	"time"

	"repro/internal/mac"
	"repro/internal/sim"
)

// recordLink counts and timestamps Send calls without delivering.
type recordLink struct {
	sched *sim.Scheduler
	times []sim.Time
	echo  bool // deliver instantly when true
}

func (l *recordLink) Send(m mac.MPDU) bool {
	l.times = append(l.times, l.sched.Now())
	if l.echo && m.OnDeliver != nil {
		l.sched.After(10*time.Microsecond, m.Deliver)
	}
	return true
}

func TestCoalescingBatchesArrivals(t *testing.T) {
	s := sim.NewScheduler()
	fwd := &recordLink{sched: s, echo: true}
	rev := &recordLink{sched: s, echo: true}
	f := NewFlow(s, fwd, rev, Config{PacingBps: 500e6, CoalesceUs: 100})
	f.Start()
	s.Run(20 * time.Millisecond)
	if len(fwd.times) < 100 {
		t.Fatalf("segments sent = %d", len(fwd.times))
	}
	// Sends must cluster: count distinct send instants vs total sends.
	instants := map[sim.Time]int{}
	for _, at := range fwd.times {
		instants[at]++
	}
	burst := 0
	for _, n := range instants {
		if n >= 2 {
			burst++
		}
	}
	if burst*3 < len(instants) {
		t.Errorf("arrivals not batched: %d burst instants of %d", burst, len(instants))
	}
}

func TestCoalesceDisabled(t *testing.T) {
	s := sim.NewScheduler()
	fwd := &recordLink{sched: s, echo: true}
	rev := &recordLink{sched: s, echo: true}
	f := NewFlow(s, fwd, rev, Config{PacingBps: 500e6, CoalesceUs: -1})
	f.Start()
	s.Run(10 * time.Millisecond)
	// ~500 Mbps / 1448 B ≈ 43 segments per ms.
	per := float64(len(fwd.times)) / 10
	if per < 30 || per > 55 {
		t.Errorf("segments per ms = %.1f", per)
	}
}

func TestTokenBucketNoCatchUp(t *testing.T) {
	// Stall the link for a while, then release it: the delivered rate
	// after release must not exceed the feed rate plus one burst.
	s := sim.NewScheduler()
	fwd := &gateLink{sched: s}
	rev := &recordLink{sched: s, echo: true}
	f := NewFlow(s, fwd, rev, Config{PacingBps: 400e6})
	f.Start()
	// Gate closed: segments queue in the MAC (accepted but undelivered).
	s.Run(50 * time.Millisecond)
	fwd.open = true
	fwd.flush()
	start := s.Now()
	base := f.Delivered
	s.Run(100 * time.Millisecond)
	rate := float64(f.Delivered-base) * 8 / (s.Now() - start).Seconds()
	// One burst (64 KB) over 100 ms adds ≤ 5.3 Mbps of slack.
	if rate > 430e6 {
		t.Errorf("post-stall rate %.0f Mbps exceeds the 400 Mbps feed", rate/1e6)
	}
}

// gateLink holds segments until opened.
type gateLink struct {
	sched   *sim.Scheduler
	open    bool
	pending []func()
}

func (g *gateLink) Send(m mac.MPDU) bool {
	if m.OnDeliver == nil {
		return true
	}
	deliver := m.Deliver
	if g.open {
		g.sched.After(10*time.Microsecond, deliver)
		return true
	}
	g.pending = append(g.pending, deliver)
	return true
}

func (g *gateLink) flush() {
	for i, d := range g.pending {
		at := time.Duration(i) * 30 * time.Microsecond
		d := d
		g.sched.After(at, d)
	}
	g.pending = nil
}
