package core

import (
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/mac/wihd"
)

func TestScenarioRunAdvancesClock(t *testing.T) {
	sc := NewScenario(geom.Open(), 1)
	if sc.Now() != 0 {
		t.Fatalf("fresh clock = %v", sc.Now())
	}
	sc.Run(50 * time.Millisecond)
	if sc.Now() != 50*time.Millisecond {
		t.Errorf("clock = %v", sc.Now())
	}
	sc.Run(25 * time.Millisecond)
	if sc.Now() != 75*time.Millisecond {
		t.Errorf("clock = %v", sc.Now())
	}
}

func TestScenarioWiGigEndToEnd(t *testing.T) {
	sc := NewScenario(geom.Open(), 2)
	l := sc.AddWiGigLink(
		wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 2},
		wigig.Config{Name: "sta", Pos: geom.V(2, 0), Seed: 3},
	)
	if !l.WaitAssociated(sc.Sched, time.Second) {
		t.Fatal("no association")
	}
}

func TestScenarioWiHDEndToEnd(t *testing.T) {
	sc := NewScenario(geom.Open(), 4)
	sys := sc.AddWiHD(
		wihd.Config{Name: "tx", Pos: geom.V(0, 0), Seed: 4},
		wihd.Config{Name: "rx", Pos: geom.V(8, 0), Seed: 5},
	)
	if !sys.WaitPaired(sc.Sched, time.Second) {
		t.Fatal("no pairing")
	}
}

func TestScenarioSniffer(t *testing.T) {
	sc := NewScenario(geom.Open(), 6)
	sn := sc.AddSniffer("v", geom.V(1, 0), antenna.OpenWaveguide(), math.Pi)
	if sn == nil || sn.Radio() == nil {
		t.Fatal("sniffer not mounted")
	}
	// An unassociated dock's discovery sweeps must reach it.
	d := wigig.NewDevice(sc.Med, wigig.Config{Name: "dock", Role: wigig.Dock, Pos: geom.V(0, 0), Seed: 6})
	d.Start()
	sc.Run(300 * time.Millisecond)
	if sn.Stats.Captured == 0 {
		t.Error("sniffer heard nothing")
	}
}

func TestResultChecks(t *testing.T) {
	var r Result
	r.ID = "X1"
	r.Title = "test"
	if !r.Pass() {
		t.Error("empty result should pass")
	}
	r.CheckRange("in range", 5, 1, 10, "units")
	if !r.Pass() {
		t.Error("in-range check failed")
	}
	r.CheckRange("out of range", 15, 1, 10, "units")
	if r.Pass() {
		t.Error("out-of-range check passed")
	}
	r.CheckTrue("bool", "want true", true)
	r.Note("note %d", 42)
	if len(r.Checks) != 3 || len(r.Notes) != 1 {
		t.Errorf("checks=%d notes=%d", len(r.Checks), len(r.Notes))
	}
}

func TestResultString(t *testing.T) {
	var r Result
	r.ID = "F99"
	r.Title = "synthetic"
	r.PaperClaim = "everything"
	r.CheckRange("metric", 5, 1, 10, "u")
	r.AddCheck("broken", "x", "y", false)
	r.Note("hello")
	r.Series = append(r.Series, Series{Label: "s", XLabel: "x", YLabel: "y", X: []float64{1}, Y: []float64{2}})
	s := r.String()
	for _, want := range []string{"F99", "FAIL", "[ok ]", "[BAD]", "hello", `series "s"`} {
		if !strings.Contains(s, want) {
			t.Errorf("String missing %q:\n%s", want, s)
		}
	}
	// A passing result renders PASS.
	var ok Result
	ok.ID = "T0"
	ok.CheckTrue("fine", "true", true)
	if !strings.Contains(ok.String(), "PASS") {
		t.Error("missing PASS")
	}
}

func TestScenarioDeterminism(t *testing.T) {
	run := func() (int, float64) {
		sc := NewScenario(geom.Open(), 77)
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 77},
			wigig.Config{Name: "sta", Pos: geom.V(3, 0), Seed: 78},
		)
		if !l.WaitAssociated(sc.Sched, time.Second) {
			t.Fatal("no association")
		}
		sc.Run(100 * time.Millisecond)
		return l.Dock.Sector(), l.Dock.SNREstimate()
	}
	s1, e1 := run()
	s2, e2 := run()
	if s1 != s2 || e1 != e2 {
		t.Errorf("same seed diverged: (%d,%v) vs (%d,%v)", s1, e1, s2, e2)
	}
}
