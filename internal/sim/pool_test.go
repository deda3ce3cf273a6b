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

// --- Pooled-timer safety -------------------------------------------------

// A Timer handle held across its event's fire must go dead, and Cancel
// through it must never touch the recycled record's next incarnation —
// even when that record has already been reused for an unrelated event.
func TestTimerCancelAfterFireIsNoOp(t *testing.T) {
	s := NewScheduler()
	stale := s.After(time.Millisecond, func() {})
	s.Run(time.Second)
	if stale.Active() {
		t.Fatal("handle still active after its event fired")
	}

	// The recycled record is now reused for a new event.
	fired := false
	fresh := s.After(time.Millisecond, func() { fired = true })
	if fresh.ev != stale.ev {
		t.Fatalf("free list did not recycle the record (got %p, want %p)", fresh.ev, stale.ev)
	}
	// Canceling through the stale handle must not cancel the new event.
	stale.Cancel()
	if !fresh.Active() {
		t.Fatal("stale Cancel killed an unrelated event on the recycled record")
	}
	if s.Pending() != 1 {
		t.Fatalf("Pending = %d, want 1", s.Pending())
	}
	s.Run(s.Now() + time.Second)
	if !fired {
		t.Fatal("event on recycled record did not fire")
	}
}

// Double-Cancel through the same handle, and Cancel through a copy of an
// already-canceled handle, are both no-ops.
func TestTimerDoubleCancelSafe(t *testing.T) {
	s := NewScheduler()
	tm := s.After(time.Millisecond, func() { t.Error("canceled timer fired") })
	cp := tm
	tm.Cancel()
	tm.Cancel()
	cp.Cancel()
	if tm.Active() || cp.Active() {
		t.Error("canceled handles report active")
	}
	if at := tm.At(); at != 0 {
		t.Errorf("dead handle At() = %v, want 0", at)
	}
	var zero Timer
	zero.Cancel() // the zero Timer is inert
	if zero.Active() {
		t.Error("zero Timer reports active")
	}
	s.Run(time.Second)
}

// The free list actually recycles: a long schedule/fire churn must not
// grow the pool beyond the peak number of concurrently queued events.
func TestTimerPoolBounded(t *testing.T) {
	s := NewScheduler()
	var tick func()
	n := 0
	tick = func() {
		n++
		if n < 10000 {
			s.After(time.Microsecond, tick)
		}
	}
	s.After(time.Microsecond, tick)
	s.Run(time.Second)
	if n != 10000 {
		t.Fatalf("ticks = %d", n)
	}
	if got := len(s.free); got > 2 {
		t.Errorf("free list holds %d records after a 1-deep churn, want <= 2", got)
	}
}

// --- Reversed-channel coherence -----------------------------------------

// The reverse orientation is a view of the pair's canonical bundle, so
// every invalidation route drops and re-traces both at once; a stale
// mirror would keep delivering the old geometry in one direction only.
func TestReversedChannelCacheCoherence(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)

	// A reverse read alone traces the canonical orientation.
	m.RxPowerDBm(r[1], r[0])
	e := m.entry(r[0].ID, r[1].ID)
	if !e.traced || e.fwd.Len() == 0 || e.rev.Len() != e.fwd.Len() {
		t.Fatalf("reverse read left the entry traced=%v with %d/%d rays", e.traced, e.fwd.Len(), e.rev.Len())
	}

	// InvalidateRadio drops both orientations.
	m.InvalidateRadio(r[0].ID)
	if e.traced {
		t.Fatal("InvalidateRadio left the pair traced")
	}

	// Re-prime, then walk the blocker onto the LOS: syncRoom must drop
	// the mirror too, and the re-traced reverse channel must see the new
	// geometry (equal power in both directions, isotropic patterns).
	before := m.RxPowerDBm(r[1], r[0])
	room.MoveWall(walker, geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)))
	rev := m.RxPowerDBm(r[1], r[0])
	fwd := m.RxPowerDBm(r[0], r[1])
	if math.Abs(fwd-rev) > 1e-9 {
		t.Errorf("orientations disagree after MoveWall: fwd %v, rev %v dBm", fwd, rev)
	}
	if rev >= before-10 {
		t.Errorf("reverse channel did not see the blocker: %v -> %v dBm", before, rev)
	}
	if e.rev.Len() != e.fwd.Len() || (e.fwd.Len() > 0 && &e.rev.WLin[0] != &e.fwd.WLin[0]) {
		t.Error("reverse view not re-derived from the rebuilt bundle")
	}

	// Structural edit drops everything, mirror included.
	room.AddWall(geom.V(-5, 50), geom.V(5, 50), "glass")
	m.syncRoom()
	if e.traced {
		t.Error("structural edit left the pair traced")
	}
}

// A genuine 0 dBm listen floor survives AddRadio when flagged as set;
// the unflagged zero value still defaults to -90 dBm.
func TestListenFloorZeroConfigurable(t *testing.T) {
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 7)
	def := m.AddRadio(&Radio{Name: "default"})
	if def.ListenFloorDBm != -90 {
		t.Errorf("unset listen floor = %v, want -90", def.ListenFloorDBm)
	}
	deaf := m.AddRadio(&Radio{Name: "deaf", ListenFloorDBm: 0, ListenFloorSet: true})
	if deaf.ListenFloorDBm != 0 {
		t.Errorf("explicit 0 dBm listen floor reset to %v", deaf.ListenFloorDBm)
	}
	custom := m.AddRadio(&Radio{Name: "custom", ListenFloorDBm: -70})
	if custom.ListenFloorDBm != -70 {
		t.Errorf("explicit -70 dBm listen floor became %v", custom.ListenFloorDBm)
	}
}

// --- Zero-allocation assertions ------------------------------------------

// Steady-state schedule/fire and schedule/cancel cycles must not allocate:
// event records come from the scheduler's free list.
func TestSchedulerSteadyStateZeroAlloc(t *testing.T) {
	s := NewScheduler()
	fn := func() {}
	// Warm the pool and the heap's backing array.
	for i := 0; i < 64; i++ {
		s.After(time.Microsecond, fn)
	}
	s.Run(s.Now() + time.Millisecond)

	if avg := testing.AllocsPerRun(1000, func() {
		s.After(time.Microsecond, fn)
		s.Run(s.Now() + time.Millisecond)
	}); avg != 0 {
		t.Errorf("schedule/fire cycle allocates %.1f/op, want 0", avg)
	}
	if avg := testing.AllocsPerRun(1000, func() {
		tm := s.After(time.Microsecond, fn)
		tm.Cancel()
	}); avg != 0 {
		t.Errorf("schedule/cancel cycle allocates %.1f/op, want 0", avg)
	}
}

// A reverse-direction power read on a warm entry must not allocate: the
// mirrored orientation is a view of the canonical bundle.
func TestChannelReverseHitZeroAlloc(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(5, 0.7)
	m.RxPowerDBm(r[1], r[0]) // trace the pair

	if avg := testing.AllocsPerRun(1000, func() {
		m.RxPowerDBm(r[1], r[0])
	}); avg != 0 {
		t.Errorf("reverse RxPowerDBm allocates %.1f/op, want 0", avg)
	}
}

// One full transmit→deliver cycle in steady state must not allocate:
// transmission structs, their power slices, and the end-of-frame timer
// all come from their pools.
func TestDeliverySteadyStateZeroAlloc(t *testing.T) {
	s, m, a, b := newTestMedium(2, 0)
	delivered := 0
	b.Handler = HandlerFunc(func(phy.Frame, Reception) { delivered++ })
	f := phy.Frame{Type: phy.FrameData, Src: a.ID, Dst: b.ID, MCS: phy.MCS8, PayloadBytes: 1000}
	// Warm every pool: transmissions, timer records, active list.
	for i := 0; i < 32; i++ {
		m.Transmit(a, f)
		s.Run(s.Now() + time.Millisecond)
	}

	if avg := testing.AllocsPerRun(1000, func() {
		m.Transmit(a, f)
		s.Run(s.Now() + time.Millisecond)
	}); avg != 0 {
		t.Errorf("transmit→deliver cycle allocates %.1f/op, want 0", avg)
	}
	if delivered == 0 {
		t.Fatal("no deliveries observed")
	}
}

// depth16Scheduler returns a scheduler holding 16 self-rescheduling
// tickers, one due every microsecond: each Run(now+1µs) fires exactly one,
// which re-queues itself 16 µs out, so the queue stays 16 events deep —
// the depth the timer heap sees in the frame-level experiments.
func depth16Scheduler() *Scheduler {
	s := NewScheduler()
	for i := 0; i < 16; i++ {
		var tick func()
		tick = func() { s.After(16*time.Microsecond, tick) }
		s.At(Time(i+1)*time.Microsecond, tick)
	}
	return s
}

// busyMedium is a medium whose finish() sees a dense channel: three
// isotropic radios take turns transmitting 12 µs frames every 8 µs, so
// each ended frame overlaps two others from different radios while
// ~50 frames sit in the 400 µs retention window. step advances it by one
// frame.
type busyMedium struct {
	m      *Medium
	radios []*Radio
	frames []phy.Frame
	n      int
}

func newBusyMedium() *busyMedium {
	m, r := testMedium(geom.Open(), 3)
	r[0].Pos, r[1].Pos, r[2].Pos = geom.V(0, 0), geom.V(2, 0), geom.V(1, 1.7)
	bm := &busyMedium{m: m, radios: r}
	payload := phy.MCS8.MaxAggBytes(12 * time.Microsecond)
	for _, rd := range r {
		rd.Handler = HandlerFunc(func(phy.Frame, Reception) {})
		bm.frames = append(bm.frames, phy.Frame{Type: phy.FrameData, Src: rd.ID, Dst: -1, MCS: phy.MCS8, PayloadBytes: payload})
	}
	// Fill the retention window and every pool.
	for i := 0; i < 200; i++ {
		bm.step()
	}
	return bm
}

func (bm *busyMedium) step() {
	i := bm.n % len(bm.radios)
	bm.n++
	bm.m.Transmit(bm.radios[i], bm.frames[i])
	bm.m.Sched.Run(bm.m.Sched.Now() + 8*time.Microsecond)
}

// A steady 16-deep event queue cycles without allocating.
func TestSchedulerDepth16ZeroAlloc(t *testing.T) {
	s := depth16Scheduler()
	s.Run(s.Now() + 64*time.Microsecond)
	if avg := testing.AllocsPerRun(1000, func() {
		s.Run(s.Now() + time.Microsecond)
	}); avg != 0 {
		t.Errorf("16-deep schedule/fire cycle allocates %.1f/op, want 0", avg)
	}
	if s.Pending() != 16 {
		t.Fatalf("Pending = %d, want a steady 16", s.Pending())
	}
}

// The busy-medium fixture holds the shape its benchmark claims, and a
// transmit→finish cycle on it does not allocate.
func TestMediumFinishBusyZeroAlloc(t *testing.T) {
	bm := newBusyMedium()
	if avg := testing.AllocsPerRun(1000, bm.step); avg != 0 {
		t.Errorf("busy transmit→finish cycle allocates %.1f/op, want 0", avg)
	}
	if n := len(bm.m.active) - bm.m.activeHead; n < 40 || n > 70 {
		t.Errorf("%d transmissions retained, want ~50", n)
	}
	if n := len(bm.m.ovTx); n != 2 {
		t.Errorf("last finish staged %d overlaps, want 2", n)
	}
}

// --- Microbenchmarks -----------------------------------------------------

func BenchmarkSchedulerCycle(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	s.After(time.Microsecond, fn)
	s.Run(s.Now() + time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.After(time.Microsecond, fn)
		s.Run(s.Now() + time.Millisecond)
	}
}

func BenchmarkSchedulerCancel(b *testing.B) {
	s := NewScheduler()
	fn := func() {}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		tm := s.After(time.Microsecond, fn)
		tm.Cancel()
	}
}

// BenchmarkRxPowerReverseHit measures a reverse-orientation power read
// on a warm pair entry (isotropic radios, so every read runs the kernel
// over the reverse view).
func BenchmarkRxPowerReverseHit(b *testing.B) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(5, 0.7)
	m.RxPowerDBm(r[1], r[0])
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.RxPowerDBm(r[1], r[0])
	}
}

func BenchmarkMediumDelivery(b *testing.B) {
	s := NewScheduler()
	m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 42)
	m.FadingSigmaDB = 0.8
	horn := antenna.Horn{PeakGainDBi: 15, HPBWDeg: 15}
	tx := m.AddRadio(&Radio{Name: "tx", Pos: geom.V(0, 0)})
	rx := m.AddRadio(&Radio{Name: "rx", Pos: geom.V(2, 0)})
	mountHorns(tx, rx, horn)
	rx.Handler = HandlerFunc(func(phy.Frame, Reception) {})
	f := phy.Frame{Type: phy.FrameData, Src: tx.ID, Dst: rx.ID, MCS: phy.MCS8, PayloadBytes: 4096}
	m.Transmit(tx, f)
	s.Run(s.Now() + time.Millisecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m.Transmit(tx, f)
		s.Run(s.Now() + time.Millisecond)
	}
}

func BenchmarkSchedulerDepth16(b *testing.B) {
	s := depth16Scheduler()
	s.Run(s.Now() + 64*time.Microsecond)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Run(s.Now() + time.Microsecond)
	}
}

func BenchmarkMediumFinishBusy(b *testing.B) {
	bm := newBusyMedium()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bm.step()
	}
}
