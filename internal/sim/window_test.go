package sim

import (
	"math"
	"math/rand"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/rf"
)

// fullScanOverlaps is the overlap pass finish() ran before the windowed
// scan: every retained entry, in list order, under the same predicate.
// The windowed scan must reproduce it bit for bit, order included.
func fullScanOverlaps(list []*transmission, t *transmission, now Time) ([]*transmission, []float64) {
	var ovTx []*transmission
	var ovFrac []float64
	dur := float64(t.end - t.start)
	for _, a := range list {
		if a.end <= now-pruneWindow {
			continue
		}
		if dur <= 0 || a == t || a.tx == t.tx {
			continue
		}
		ovStart := maxTime(t.start, a.start)
		ovEnd := minTime(t.end, a.end)
		if ovEnd <= ovStart {
			continue
		}
		ovTx = append(ovTx, a)
		ovFrac = append(ovFrac, float64(ovEnd-ovStart)/dur)
	}
	return ovTx, ovFrac
}

// pruneAll drops every expired entry wherever it sits, as finish() did
// before pruning became prefix-only: the retained list the full scan saw.
func pruneAll(list []*transmission, now Time) []*transmission {
	keep := list[:0]
	for _, a := range list {
		if a.end > now-pruneWindow {
			keep = append(keep, a)
		}
	}
	return keep
}

type windowSpec struct {
	start, dur Time
	tx         int
}

// windowSchedule draws n frames from three transmitters in start order.
// Gaps mix same-instant starts, dense bursts, starts at (or a nanosecond
// either side of) an earlier frame's end, and idle gaps long enough to drain the retained
// list down to the frame that just ended. With long set, air times reach
// past pruneWindow.
func windowSchedule(rng *rand.Rand, n int, long bool) []windowSpec {
	durs := []Time{
		-3 * time.Microsecond, 0, 1, 2 * time.Microsecond, 5 * time.Microsecond,
		12 * time.Microsecond, 40 * time.Microsecond, 180 * time.Microsecond,
		pruneWindow - time.Microsecond, pruneWindow - 1,
	}
	if long {
		durs = append(durs, pruneWindow, pruneWindow+1, 2*pruneWindow+3*time.Microsecond)
	}
	specs := make([]windowSpec, 0, n)
	cur := Time(0)
	for i := 0; i < n; i++ {
		switch k := rng.Intn(10); {
		case k < 4:
			cur += Time(rng.Intn(21)) * time.Microsecond // 0 gives a same-instant start
		case k < 6 && i > 0:
			// Start exactly where a recent frame ends, or one nanosecond
			// either side of it, if that is not in the past: the edges of
			// both the overlap test and the maxDur window.
			p := specs[len(specs)-1-rng.Intn(min(len(specs), 8))]
			if at := p.start + p.dur + Time(rng.Intn(3)-1); at >= cur {
				cur = at
			}
		case k < 7:
			cur += pruneWindow + Time(rng.Intn(600))*time.Microsecond
		default:
			cur += Time(rng.Intn(6000)) // sub-microsecond crowding
		}
		// Weight the short, realistic air times so the retained list
		// stays tens of entries deep between drains.
		d := durs[rng.Intn(len(durs))]
		if rng.Intn(3) > 0 {
			d = Time(1+rng.Intn(20)) * time.Microsecond
		}
		specs = append(specs, windowSpec{start: cur, dur: d, tx: rng.Intn(3)})
	}
	return specs
}

// The windowed overlap scan and prefix-only pruning must stage exactly
// the interferers and overlap fractions the full scan of the old
// everywhere-pruned list did, in the same order, at every finish.
// Frames are launched through Medium.launch with finish wrapped to check
// the staged set against the oracle right after it ran.
func TestOverlapWindowMatchesFullScan(t *testing.T) {
	var finishes, overlaps, compactions, drains, lingering int
	for seed := int64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewSource(seed))
		specs := windowSchedule(rng, 600, seed%2 == 0)
		s := NewScheduler()
		m := NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 1)
		radios := []*Radio{{Name: "a"}, {Name: "b"}, {Name: "c"}}
		var shadow []*transmission
		var maxDur Time
		headBefore := 0

		check := func(tr *transmission) {
			now := s.Now()
			finishes++
			shadow = pruneAll(shadow, now)
			wantTx, wantFrac := fullScanOverlaps(shadow, tr, now)
			if len(m.ovTx) != len(wantTx) || len(m.ovFrac) != len(wantFrac) {
				t.Fatalf("seed %d at %v: %d overlaps staged, full scan finds %d", seed, now, len(m.ovTx), len(wantTx))
			}
			for i := range wantTx {
				if m.ovTx[i] != wantTx[i] || math.Float64bits(m.ovFrac[i]) != math.Float64bits(wantFrac[i]) {
					t.Fatalf("seed %d at %v: overlap %d is (%p, %v), full scan has (%p, %v)",
						seed, now, i, m.ovTx[i], m.ovFrac[i], wantTx[i], wantFrac[i])
				}
			}
			overlaps += len(wantTx)

			// Bookkeeping invariants: a nil dead prefix shorter than the
			// retained tail, a start-ordered tail whose unexpired entries
			// are exactly the old list, and an exact maxDur.
			h := m.activeHead
			if h != 0 && h >= len(m.active)-h {
				t.Fatalf("seed %d: head %d not compacted (len %d)", seed, h, len(m.active))
			}
			for i, a := range m.active[:h] {
				if a != nil {
					t.Fatalf("seed %d: pruned slot %d still holds a transmission", seed, i)
				}
			}
			for i, a := range m.active[len(m.active):cap(m.active)] {
				if a != nil {
					t.Fatalf("seed %d: spare slot %d past the list keeps a transmission", seed, len(m.active)+i)
				}
			}
			live := 0
			for i, a := range m.active[h:] {
				if i > 0 && a.start < m.active[h+i-1].start {
					t.Fatalf("seed %d: active list out of start order at %d", seed, h+i)
				}
				if a.end <= now-pruneWindow {
					lingering++
					continue
				}
				if live >= len(shadow) || shadow[live] != a {
					t.Fatalf("seed %d at %v: retained entry %d diverges from the full-scan list", seed, now, h+i)
				}
				live++
			}
			if live != len(shadow) {
				t.Fatalf("seed %d: %d unexpired retained entries, full-scan list has %d", seed, live, len(shadow))
			}
			if m.maxDur != maxDur {
				t.Fatalf("seed %d: maxDur %v, want %v", seed, m.maxDur, maxDur)
			}
			if headBefore > 0 && h == 0 {
				compactions++
			}
			if len(m.active)-h == 1 {
				drains++ // everything older than tr was pruned
			}
			headBefore = h
		}

		var launchNext func(i int)
		launchNext = func(i int) {
			sp := specs[i]
			s.At(sp.start, func() {
				// Queue the next launch first so a same-instant finish
				// lands on either side of it across the schedule.
				if i+1 < len(specs) {
					launchNext(i + 1)
				}
				tr := &transmission{tx: radios[sp.tx], start: s.Now(), end: s.Now() + sp.dur}
				tr.fire = func() { m.finish(tr); check(tr) }
				if sp.dur > maxDur {
					maxDur = sp.dur
				}
				shadow = append(shadow, tr)
				m.launch(tr)
			})
		}
		launchNext(0)
		s.Run(specs[len(specs)-1].start + 3*pruneWindow)
		if s.Pending() != 0 {
			t.Fatalf("seed %d: %d events left", seed, s.Pending())
		}
	}
	if finishes != 60*600 {
		t.Fatalf("%d finishes checked, want %d", finishes, 60*600)
	}
	t.Logf("finishes %d, overlaps %d, compactions %d, drains %d, expired entries lingering behind the head %d",
		finishes, overlaps, compactions, drains, lingering)
	if overlaps == 0 || compactions == 0 || drains == 0 || lingering == 0 {
		t.Fatalf("schedule too tame: overlaps %d, compactions %d, drains %d, lingering %d",
			overlaps, compactions, drains, lingering)
	}
}
