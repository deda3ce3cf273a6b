package sim

import (
	"math/rand"
	"sort"
	"testing"
	"testing/quick"
	"time"

	"repro/internal/audit"
)

// TestSchedulerOrderProperty: whatever order events are scheduled in,
// they fire in nondecreasing time order, and same-time events fire in
// scheduling (FIFO) order.
func TestSchedulerOrderProperty(t *testing.T) {
	f := func(offsets []uint16) bool {
		if len(offsets) == 0 {
			return true
		}
		if len(offsets) > 200 {
			offsets = offsets[:200]
		}
		s := NewScheduler()
		type fired struct {
			at  Time
			seq int
		}
		var log []fired
		for i, off := range offsets {
			i := i
			at := Time(off) * time.Microsecond
			s.At(at, func() { log = append(log, fired{s.Now(), i}) })
		}
		s.Run(time.Second)
		if len(log) != len(offsets) {
			return false
		}
		for i := 1; i < len(log); i++ {
			if log[i].at < log[i-1].at {
				return false
			}
			if log[i].at == log[i-1].at && log[i].seq < log[i-1].seq {
				return false
			}
		}
		// The fired times must be exactly the scheduled multiset.
		want := make([]int, len(offsets))
		for i, off := range offsets {
			want[i] = int(off)
		}
		got := make([]int, len(log))
		for i, l := range log {
			got[i] = int(l.at / time.Microsecond)
		}
		sort.Ints(want)
		sort.Ints(got)
		for i := range want {
			if want[i] != got[i] {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerCancelProperty: canceling an arbitrary subset prevents
// exactly that subset from firing.
func TestSchedulerCancelProperty(t *testing.T) {
	f := func(offsets []uint16, cancelMask []bool) bool {
		if len(offsets) > 100 {
			offsets = offsets[:100]
		}
		s := NewScheduler()
		firedCount := 0
		canceled := 0
		var timers []Timer
		for i, off := range offsets {
			timers = append(timers, s.At(Time(off)*time.Microsecond, func() { firedCount++ }))
			if i < len(cancelMask) && cancelMask[i] {
				timers[i].Cancel()
				canceled++
			}
		}
		s.Run(time.Second)
		return firedCount == len(offsets)-canceled
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 50}); err != nil {
		t.Error(err)
	}
}

// TestSchedulerHeapOpsProperty drives the typed timer heap through a
// random mix of At, After (including past times, which clamp to now),
// same-instant ties, partial Runs, and Cancel aimed at the root, the
// last slot, a middle slot, and dead handles. After every step Pending
// must equal the model's live count, every Run must fire exactly the
// model's due events in (at, seq) order, and the heap audit, sweeping at
// every event, must stay silent.
func TestSchedulerHeapOpsProperty(t *testing.T) {
	type entry struct {
		at  Time
		seq int
		tm  Timer
	}
	withAudit(t, func() {
		for seed := int64(1); seed <= 40; seed++ {
			rng := rand.New(rand.NewSource(seed))
			s := NewScheduler()
			s.SetWatchdogEvery(1)
			var live []entry // model of the queued events
			var dead []Timer // handles of fired or canceled events
			var fired []int
			next := 0
			schedule := func(at Time, after bool) {
				id := next
				next++
				fn := func() { fired = append(fired, id) }
				var tm Timer
				if after {
					tm = s.After(at-s.Now(), fn)
				} else {
					tm = s.At(at, fn)
				}
				if at < s.Now() {
					at = s.Now()
				}
				live = append(live, entry{at: at, seq: id, tm: tm})
			}
			cancelSlot := func(slot int) {
				ev := s.events[slot]
				for i, e := range live {
					if e.tm.ev == ev && e.tm.Active() {
						e.tm.Cancel()
						dead = append(dead, e.tm)
						live = append(live[:i], live[i+1:]...)
						return
					}
				}
				t.Fatalf("seed %d: slot %d holds no modelled event", seed, slot)
			}
			runUntil := func(until Time) {
				sort.Slice(live, func(i, j int) bool {
					if live[i].at != live[j].at {
						return live[i].at < live[j].at
					}
					return live[i].seq < live[j].seq
				})
				var want []int
				for len(live) > 0 && live[0].at <= until {
					want = append(want, live[0].seq)
					dead = append(dead, live[0].tm)
					live = live[1:]
				}
				fired = fired[:0]
				s.Run(until)
				if len(fired) != len(want) {
					t.Fatalf("seed %d: run to %v fired %d events, want %d", seed, until, len(fired), len(want))
				}
				for i := range want {
					if fired[i] != want[i] {
						t.Fatalf("seed %d: run to %v fired %v, want %v", seed, until, fired, want)
					}
				}
			}
			for op := 0; op < 400; op++ {
				n := len(s.events)
				switch k := rng.Intn(12); {
				case k < 4:
					// Times on a coarse grid so same-instant ties are common.
					schedule(s.Now()+Time(rng.Intn(12)-2)*time.Microsecond, rng.Intn(2) == 0)
				case k == 4 && n > 0:
					cancelSlot(0)
				case k == 5 && n > 0:
					cancelSlot(n - 1)
				case k == 6 && n > 2:
					cancelSlot(1 + rng.Intn(n-2))
				case k == 7 && len(dead) > 0:
					dead[rng.Intn(len(dead))].Cancel() // stale: must be a no-op
				case k == 8:
					runUntil(s.Now() + Time(rng.Intn(4))*time.Microsecond)
				default:
					schedule(s.Now()+Time(rng.Intn(3))*time.Microsecond, false)
				}
				if s.Pending() != len(live) {
					t.Fatalf("seed %d op %d: Pending %d, model has %d", seed, op, s.Pending(), len(live))
				}
			}
			runUntil(time.Hour)
			if s.Pending() != 0 {
				t.Fatalf("seed %d: %d events left", seed, s.Pending())
			}
		}
		if n := audit.Total(); n != 0 {
			t.Fatalf("heap audit reported %d violations: %s", n, audit.Summary())
		}
	})
}
