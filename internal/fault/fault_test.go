package fault

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/rf"
	"repro/internal/sim"
)

func newTestMedium() (*sim.Scheduler, *sim.Medium, *sim.Radio, *sim.Radio) {
	s := sim.NewScheduler()
	m := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 7)
	m.FadingSigmaDB = 0
	a := m.AddRadio(&sim.Radio{Name: "a", Pos: geom.V(0, 0)})
	b := m.AddRadio(&sim.Radio{Name: "b", Pos: geom.V(1, 0)})
	return s, m, a, b
}

func TestScheduleValidation(t *testing.T) {
	ms := time.Millisecond
	burst := func(x, y string, at, dur time.Duration, depth float64) Blockage {
		return Blockage{Link: [2]string{x, y}, At: at * ms, Duration: dur * ms, DepthDB: depth}
	}
	cases := []struct {
		name   string
		bursts []Blockage
		ok     bool
	}{
		{"empty schedule", nil, true},
		{"one burst", []Blockage{burst("a", "b", 100, 300, 20)}, true},
		{"onset at zero", []Blockage{burst("a", "b", 0, 10, 20)}, true},
		{"negative onset", []Blockage{burst("a", "b", -1, 10, 20)}, false},
		{"zero duration", []Blockage{burst("a", "b", 100, 0, 20)}, false},
		{"negative duration", []Blockage{burst("a", "b", 100, -5, 20)}, false},
		{"zero depth", []Blockage{burst("a", "b", 100, 10, 0)}, false},
		{"negative depth", []Blockage{burst("a", "b", 100, 10, -3)}, false},
		{"same radio twice", []Blockage{burst("a", "a", 100, 10, 20)}, false},
		{"disjoint on one pair", []Blockage{burst("a", "b", 100, 100, 20), burst("a", "b", 300, 100, 30)}, true},
		{"overlap on one pair", []Blockage{burst("a", "b", 100, 300, 20), burst("a", "b", 200, 300, 30)}, false},
		{"overlap on the reversed pair", []Blockage{burst("a", "b", 100, 300, 20), burst("b", "a", 200, 300, 30)}, false},
		{"nested on one pair", []Blockage{burst("b", "a", 200, 50, 30), burst("a", "b", 100, 300, 20)}, false},
		{"touching on one pair", []Blockage{burst("a", "b", 100, 100, 20), burst("b", "a", 200, 100, 30)}, false},
		{"overlap on distinct pairs", []Blockage{burst("a", "b", 100, 300, 20), burst("a", "c", 200, 300, 30)}, true},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, m, _, _ := newTestMedium()
			m.AddRadio(&sim.Radio{Name: "c", Pos: geom.V(0, 1)})
			err := Install(m, tc.bursts...)
			if tc.ok && err != nil {
				t.Errorf("well-formed schedule rejected: %v", err)
			}
			if !tc.ok && err == nil {
				t.Error("malformed schedule accepted")
			}
		})
	}
}

func TestInstallRejectsUnknownTargets(t *testing.T) {
	_, m, _, _ := newTestMedium()
	err := Install(m, Blockage{Link: [2]string{"a", "ghost"}, Duration: time.Second, DepthDB: 20})
	if err == nil {
		t.Error("unknown radio accepted")
	}
}

// Each burst lowers the pair's offset by its depth while it lasts and
// restores the offset it found, whichever way round it names the link.
func TestBurstsRestoreLinkOffset(t *testing.T) {
	s, m, a, b := newTestMedium()
	base := m.LinkOffset(a.ID, b.ID)
	ms := time.Millisecond
	if err := Install(m,
		Blockage{Link: [2]string{"a", "b"}, At: 100 * ms, Duration: 200 * ms, DepthDB: 20},
		Blockage{Link: [2]string{"b", "a"}, At: 400 * ms, Duration: 100 * ms, DepthDB: 30},
	); err != nil {
		t.Fatal(err)
	}
	for _, probe := range []struct {
		at   time.Duration
		want float64
	}{
		{50 * ms, base}, {200 * ms, base - 20}, {350 * ms, base},
		{450 * ms, base - 30}, {600 * ms, base},
	} {
		s.At(probe.at, func() {
			if got := m.LinkOffset(b.ID, a.ID); got != probe.want {
				t.Errorf("offset at %v = %v dB, want %v", probe.at, got, probe.want)
			}
		})
	}
	s.Run(time.Second)
}

// End to end: a deep blockage burst on an associated WiGig link must
// break the association (outage), the link must re-form after the burst
// clears (recovery), and the whole faulted run must replay
// bit-identically.
func TestBlockageOutageAndRecoveryDeterministic(t *testing.T) {
	run := func() (string, *wigig.Link) {
		s := sim.NewScheduler()
		m := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 11)
		link := wigig.NewLink(m,
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 21},
			wigig.Config{Name: "station", Pos: geom.V(2, 0), Seed: 22})
		err := Install(m, Blockage{
			Link: [2]string{"dock", "station"},
			At:   400 * time.Millisecond, Duration: 300 * time.Millisecond,
			DepthDB: 80,
		})
		if err != nil {
			t.Fatal(err)
		}
		if !link.WaitAssociated(s, 300*time.Millisecond) {
			t.Fatal("link failed to associate before the fault")
		}
		s.Run(2 * time.Second)
		fp := fmt.Sprintf("%+v|%+v", link.Dock.Stats, link.Station.Stats)
		return fp, link
	}
	fp1, link := run()
	if link.Dock.Stats.LinkBreaks == 0 {
		t.Error("80 dB blockage did not break the link")
	}
	if !link.Dock.Associated() || !link.Station.Associated() {
		t.Error("link did not recover after the blockage cleared")
	}
	fp2, _ := run()
	if fp1 != fp2 {
		t.Error("faulted run is not reproducible")
	}
}
