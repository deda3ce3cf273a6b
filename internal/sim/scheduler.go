// Package sim provides the discrete-event simulation engine that the
// WiGig/WiHD protocol models run on: an event scheduler with cancelable
// timers, radios bound to positions and beam patterns, and a shared
// medium that converts every transmission into per-receiver power, SINR,
// and decode outcomes using the rf propagation engine.
package sim

import (
	"errors"
	"fmt"
	"sync/atomic"
	"time"

	"repro/internal/audit"
)

// Time is simulation time, measured as a duration since the start of the
// run. Nanosecond resolution comfortably covers both the sub-microsecond
// PHY preambles and the 80-minute stability experiment of Fig. 14.
type Time = time.Duration

// timerEvent is the pooled, heap-resident record of one scheduled
// callback. Events are owned by their scheduler: firing or canceling
// recycles the record onto a free list, and gen is bumped on every
// recycle so stale Timer handles can never touch the event's next
// incarnation.
type timerEvent struct {
	at    Time
	seq   uint64
	gen   uint64
	fn    func()
	index int // heap position, -1 once popped
	sched *Scheduler
}

// Timer is a cancelable handle to a scheduled callback. It is a small
// value — copy it freely. The zero Timer is inert: Cancel is a no-op and
// Active reports false. Once the event fires or is canceled, the handle
// goes dead (the underlying record is recycled for a later Schedule, and
// the generation stamp keeps the dead handle from touching it).
type Timer struct {
	ev  *timerEvent
	gen uint64
}

// Cancel prevents the timer from firing and releases its slot in the
// event queue immediately — a canceled timer does not linger until its
// fire time. Canceling an already-fired or already-canceled timer (or
// the zero Timer) is a no-op: the generation stamp detects that the
// pooled event record has moved on, even if it has since been reused for
// an unrelated event.
func (t Timer) Cancel() {
	ev := t.ev
	if ev == nil || ev.gen != t.gen {
		return
	}
	s := ev.sched
	if ev.index >= 0 {
		s.events.remove(ev.index)
	}
	s.recycle(ev)
}

// Active reports whether the event is still queued: not yet fired and
// not canceled. The zero Timer is inactive.
func (t Timer) Active() bool { return t.ev != nil && t.ev.gen == t.gen }

// At returns the scheduled fire time while the timer is active, and 0
// once the handle is dead (fired, canceled, or zero).
func (t Timer) At() Time {
	if !t.Active() {
		return 0
	}
	return t.ev.at
}

// timerHeap is a binary min-heap of queued events ordered by (at, seq).
// The sift loops are written out over the concrete type rather than
// going through container/heap: the queue is shallow (tens of events),
// so interface dispatch, not sifting, would dominate. Sifts move a hole
// instead of swapping, writing each displaced record's index once.
// Because (at, seq) is a unique total order, the pop sequence is fully
// determined by the set of queued events, whatever the heap layout.
type timerHeap []*timerEvent

// before reports whether a fires ahead of b: earlier time first, and
// FIFO (scheduling order) among same-time events.
func (a *timerEvent) before(b *timerEvent) bool {
	return a.at < b.at || (a.at == b.at && a.seq < b.seq)
}

// push appends ev and sifts it up into place.
func (h *timerHeap) push(ev *timerEvent) {
	*h = append(*h, ev)
	h.up(len(*h) - 1)
}

// pop removes and returns the earliest event.
func (h *timerHeap) pop() *timerEvent {
	old := *h
	ev := old[0]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if n > 0 {
		old[0] = last
		h.down(0)
	}
	ev.index = -1
	return ev
}

// remove deletes the event at slot i, restoring heap order around the
// record moved into its place.
func (h *timerHeap) remove(i int) {
	old := *h
	ev := old[i]
	n := len(old) - 1
	last := old[n]
	old[n] = nil
	*h = old[:n]
	if i < n {
		old[i] = last
		if !h.down(i) {
			h.up(i)
		}
	}
	ev.index = -1
}

// up sifts the event at slot j toward the root.
func (h timerHeap) up(j int) {
	ev := h[j]
	for j > 0 {
		i := (j - 1) / 2
		p := h[i]
		if !ev.before(p) {
			break
		}
		h[j] = p
		p.index = j
		j = i
	}
	h[j] = ev
	ev.index = j
}

// down sifts the event at slot i0 toward the leaves and reports whether
// it moved.
func (h timerHeap) down(i0 int) bool {
	n := len(h)
	ev := h[i0]
	i := i0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].before(h[c]) {
			c = r
		}
		child := h[c]
		if !child.before(ev) {
			break
		}
		h[i] = child
		child.index = i
		i = c
	}
	h[i] = ev
	ev.index = i
	return i > i0
}

// DeadlineError is the panic value a scheduler raises when its
// wall-clock budget expires mid-run. The experiment guard
// (internal/experiments) recovers it and reports the run as a
// structured deadline failure instead of a hang or a crash.
type DeadlineError struct {
	// Budget is the wall-clock allowance that was exceeded.
	Budget time.Duration
	// Elapsed is the wall time actually consumed when the watchdog
	// tripped.
	Elapsed time.Duration
	// SimTime is the simulation clock at the abort point.
	SimTime Time
}

// Error implements error.
func (e *DeadlineError) Error() string {
	return fmt.Sprintf("sim: run exceeded its %v wall-clock deadline (elapsed %v, sim time %v)",
		e.Budget, e.Elapsed.Round(time.Millisecond), e.SimTime)
}

// ErrDeadline is the errors.Is target every *DeadlineError wraps, so
// callers can classify deadline failures without holding the concrete
// type — including through the campaign runner's FAIL synthesis, which
// wraps the recovered panic in par.PointError chains.
var ErrDeadline = errors.New("sim: wall-clock deadline exceeded")

// Unwrap makes errors.Is(err, ErrDeadline) hold through wrapping.
func (e *DeadlineError) Unwrap() error { return ErrDeadline }

// defaultWallBudget is the process-wide budget newly created schedulers
// inherit (nanoseconds; 0 = unlimited). The campaign runner sets it from
// the -deadline flag so every scheduler of every experiment — including
// the ones sweep points create deep inside drivers — is watched without
// plumbing a context through every call site.
var defaultWallBudget atomic.Int64

// SetDefaultWallBudget installs the wall-clock budget inherited by every
// scheduler created afterwards and returns the previous value. Zero
// disables the watchdog for new schedulers.
func SetDefaultWallBudget(d time.Duration) time.Duration {
	return time.Duration(defaultWallBudget.Swap(int64(d)))
}

// DefaultWatchdogEvery spaces the wall-clock checks: one time.Now() per
// this many events keeps the watchdog far off the hot path (an event
// dispatch costs well under a microsecond; 4096 events bound the
// detection latency to a few milliseconds of simulation work).
// Audit-heavy runs can tighten the cadence per scheduler with
// SetWatchdogEvery — the heap-consistency audit shares it.
const DefaultWatchdogEvery = 4096

// Scheduler is a single-threaded discrete-event executor. All simulation
// code runs on the scheduler goroutine; the models need no locking.
// Interrupt is the one exception: any goroutine may trip it to make Run
// return cleanly at the next event boundary.
type Scheduler struct {
	now     Time
	seq     uint64
	events  timerHeap
	free    []*timerEvent // recycled event records (fired or canceled)
	stopped bool

	wallBudget  time.Duration
	wallStart   time.Time // zero until the first watched Run
	eventsRun   uint64
	checkEvery  uint64
	interrupted atomic.Bool
}

// NewScheduler returns a scheduler at time zero, inheriting the process
// default wall-clock budget (SetDefaultWallBudget) and the default
// watchdog cadence.
func NewScheduler() *Scheduler {
	return &Scheduler{
		wallBudget: time.Duration(defaultWallBudget.Load()),
		checkEvery: DefaultWatchdogEvery,
	}
}

// SetWallBudget overrides this scheduler's wall-clock budget. The clock
// starts at the first Run call after the budget is set; zero disables
// the watchdog.
func (s *Scheduler) SetWallBudget(d time.Duration) {
	s.wallBudget = d
	s.wallStart = time.Time{}
}

// SetWatchdogEvery sets how many events pass between wall-clock deadline
// checks (and, when auditing is on, heap-consistency sweeps). Values
// below one restore DefaultWatchdogEvery. Tighter cadences bound
// deadline-detection latency at the cost of more time.Now() calls.
func (s *Scheduler) SetWatchdogEvery(n int) {
	if n < 1 {
		s.checkEvery = DefaultWatchdogEvery
		return
	}
	s.checkEvery = uint64(n)
}

// WatchdogEvery returns the active check cadence.
func (s *Scheduler) WatchdogEvery() int { return int(s.checkEvery) }

// Interrupt makes Run return cleanly at the next event boundary. It is
// the only Scheduler method safe to call from another goroutine —
// campaign watchdogs use it to cancel a wedged experiment without
// killing the process.
func (s *Scheduler) Interrupt() { s.interrupted.Store(true) }

// Interrupted reports whether Interrupt has been called. Run refuses to
// execute further events once tripped.
func (s *Scheduler) Interrupted() bool { return s.interrupted.Load() }

// Now returns the current simulation time.
func (s *Scheduler) Now() Time { return s.now }

// At schedules fn at absolute simulation time t. Scheduling in the past
// fires at the current time (events never travel backwards). The event
// record comes from the scheduler's free list, so steady-state
// scheduling does not allocate.
func (s *Scheduler) At(t Time, fn func()) Timer {
	if t < s.now {
		t = s.now
	}
	s.seq++
	var ev *timerEvent
	if n := len(s.free); n > 0 {
		ev = s.free[n-1]
		s.free[n-1] = nil
		s.free = s.free[:n-1]
	} else {
		ev = &timerEvent{sched: s}
	}
	ev.at, ev.seq, ev.fn = t, s.seq, fn
	s.events.push(ev)
	return Timer{ev: ev, gen: ev.gen}
}

// After schedules fn after delay d.
func (s *Scheduler) After(d Time, fn func()) Timer {
	return s.At(s.now+d, fn)
}

// recycle returns a popped or canceled event record to the free list.
// Bumping the generation kills every outstanding Timer handle to it.
func (s *Scheduler) recycle(ev *timerEvent) {
	ev.gen++
	ev.fn = nil // release the captured callback
	s.free = append(s.free, ev)
}

// Stop makes Run return after the current event.
func (s *Scheduler) Stop() { s.stopped = true }

// Pending returns the number of live queued events. Canceled timers are
// removed from the queue at Cancel time and never counted.
func (s *Scheduler) Pending() int { return len(s.events) }

// Run executes events in time order until the queue is empty, the
// horizon is passed, Stop or Interrupt is called, or the wall-clock
// budget expires (which panics with *DeadlineError — recovered by the
// experiment guard). It returns the simulation time at exit; the clock
// is advanced to the horizon even if the queue drained earlier, so
// back-to-back Run calls see a contiguous timeline.
func (s *Scheduler) Run(until Time) Time {
	s.stopped = false
	if s.wallBudget > 0 && s.wallStart.IsZero() {
		s.wallStart = time.Now()
	}
	for len(s.events) > 0 && !s.stopped {
		if s.interrupted.Load() {
			return s.now
		}
		next := s.events[0]
		if next.at > until {
			break
		}
		s.events.pop()
		// Recycle before dispatch: the callback may schedule new events,
		// and reusing this record immediately keeps the free list short.
		// Canceled events never reach this loop — Cancel removes them from
		// the heap on the spot.
		at, fn := next.at, next.fn
		s.recycle(next)
		s.eventsRun++
		if s.eventsRun%s.checkEvery == 0 {
			if s.wallBudget > 0 {
				if el := time.Since(s.wallStart); el > s.wallBudget {
					panic(&DeadlineError{Budget: s.wallBudget, Elapsed: el, SimTime: at})
				}
			}
			if audit.On() {
				s.auditHeap(at)
			}
		}
		if audit.On() && at < s.now {
			audit.Reportf(audit.RuleSchedTimeMonotone, s.now,
				"event scheduled for %v popped at clock %v", at, s.now)
		}
		s.now = at
		fn()
	}
	if s.now < until && !s.stopped && !s.interrupted.Load() {
		s.now = until
	}
	return s.now
}

// auditHeap verifies the event-queue invariants Pending depends on: the
// heap order property holds, every queued timer's index matches its
// slot, and no recycled event record lingers in the queue (Cancel and
// fire both remove the heap slot before recycling, so Pending counts
// exactly the live events). Runs on the watchdog cadence when auditing
// is enabled.
func (s *Scheduler) auditHeap(now Time) {
	for i, tm := range s.events {
		if tm.index != i {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"timer at slot %d records index %d", i, tm.index)
			return
		}
		if tm.fn == nil {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"recycled event record (at %v) still queued at slot %d; Pending=%d overcounts", tm.at, i, len(s.events))
			return
		}
		if parent := (i - 1) / 2; i > 0 && tm.before(s.events[parent]) {
			audit.Reportf(audit.RuleSchedHeapConsistent, now,
				"heap order broken: slot %d (at %v, seq %d) sorts before parent slot %d (at %v, seq %d)",
				i, tm.at, tm.seq, parent, s.events[parent].at, s.events[parent].seq)
			return
		}
	}
}
