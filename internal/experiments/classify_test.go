package experiments

import (
	"errors"
	"fmt"
	"strings"
	"syscall"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/geom"
	"repro/internal/mat"
	"repro/internal/par"
	"repro/internal/rf"
	"repro/internal/sim"
	"repro/internal/vfs"
)

// A driver failure can arrive in every shape par.Guarded produces: a
// recovered panic value, a panicked error wrapping it, a returned error,
// a %w-wrapped error, or a nested sweep's *PointError. The campaign's
// FAIL synthesis must classify deadline, audit, disk and geometry
// failures identically across all of them, and errors.Is/As must
// round-trip through each wrapping.
func TestFailureClassificationTable(t *testing.T) {
	de := &sim.DeadlineError{Budget: time.Second, Elapsed: 2 * time.Second, SimTime: 5 * time.Millisecond}
	ve := &audit.ViolationError{V: audit.Violation{
		Rule: audit.RuleWiGigNAVDecrease, Severity: audit.SevError,
		Time: 3 * time.Millisecond, Detail: "nav shortened",
	}}
	ge := &rf.GeometryError{Tx: geom.V(1, 1), Rx: geom.V(2, 2),
		Err: errors.New(`mat: unknown material "plutonium"`)}
	fe := &vfs.FaultError{Op: "write", Path: "cap/F9.vubiq", Err: syscall.ENOSPC}

	cases := []struct {
		name      string
		pe        *par.PointError
		checkName string // check the FAIL result must carry
		gotSubstr string // substring of that check's Got field
	}{
		{"deadline as panic value",
			&par.PointError{Panic: de}, "completed", "exceeded"},
		{"deadline as panicked wrapping error",
			&par.PointError{Panic: fmt.Errorf("sweep: %w", de)}, "completed", "exceeded"},
		{"deadline as bare error",
			&par.PointError{Err: de}, "completed", "exceeded"},
		{"deadline wrapped with %w",
			&par.PointError{Err: fmt.Errorf("sweep point 3: %w", de)}, "completed", "exceeded"},
		{"deadline inside nested sweep PointError",
			&par.PointError{Err: &par.PointError{Index: 7, Panic: de}}, "completed", "exceeded"},
		{"deadline double-nested",
			&par.PointError{Err: &par.PointError{Err: &par.PointError{Panic: de}}}, "completed", "exceeded"},
		{"violation as panic value",
			&par.PointError{Panic: ve}, "audit", string(audit.RuleWiGigNAVDecrease)},
		{"violation as panicked wrapping error",
			&par.PointError{Panic: fmt.Errorf("auditor: %w", ve)}, "audit", string(audit.RuleWiGigNAVDecrease)},
		{"violation as bare error",
			&par.PointError{Err: ve}, "audit", string(audit.RuleWiGigNAVDecrease)},
		{"violation wrapped with %w",
			&par.PointError{Err: fmt.Errorf("driver: %w", ve)}, "audit", string(audit.RuleWiGigNAVDecrease)},
		{"violation inside nested sweep PointError",
			&par.PointError{Err: &par.PointError{Index: 2, Panic: ve}}, "audit", string(audit.RuleWiGigNAVDecrease)},
		{"disk fault as panic value",
			&par.PointError{Panic: fe}, "persistence", "during write"},
		{"disk fault as panicked wrapping error",
			&par.PointError{Panic: fmt.Errorf("capture: %w", fe)}, "persistence", "during write"},
		{"disk fault as bare error",
			&par.PointError{Err: fe}, "persistence", "during write"},
		{"disk fault wrapped with %w",
			&par.PointError{Err: fmt.Errorf("checkpoint: %w", fe)}, "persistence", "during write"},
		{"disk fault inside nested sweep PointError",
			&par.PointError{Err: &par.PointError{Index: 5, Panic: fe}}, "persistence", "during write"},
		{"geometry as panic value",
			&par.PointError{Panic: ge}, "geometry", "rejected"},
		{"geometry as panicked wrapping error (medium trace panic)",
			&par.PointError{Panic: fmt.Errorf("sim: trace a→b: %w", ge)}, "geometry", "rejected"},
		{"geometry as bare error",
			&par.PointError{Err: ge}, "geometry", "rejected"},
		{"geometry wrapped with %w",
			&par.PointError{Err: fmt.Errorf("driver: %w", ge)}, "geometry", "rejected"},
		{"geometry inside nested sweep PointError",
			&par.PointError{Err: &par.PointError{Index: 4, Panic: ge}}, "geometry", "rejected"},
		{"plain panic stays unclassified",
			&par.PointError{Panic: "index out of range"}, "completed", "panicked"},
		{"plain error stays unclassified",
			&par.PointError{Err: errors.New("driver bug")}, "completed", "failed"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			res := failResult(Runner{ID: "Z9", Title: "synthetic"}, tc.pe, time.Second)
			if res.Pass() {
				t.Fatal("synthesized failure passes")
			}
			var found *core.Check
			for i := range res.Checks {
				if res.Checks[i].Name == tc.checkName {
					found = &res.Checks[i]
				}
			}
			if found == nil {
				t.Fatalf("no %q check in %+v", tc.checkName, res.Checks)
			}
			if !strings.Contains(found.Got, tc.gotSubstr) {
				t.Errorf("check Got = %q, want substring %q", found.Got, tc.gotSubstr)
			}
		})
	}
}

// The sentinel contracts: every *DeadlineError is errors.Is-identifiable
// as sim.ErrDeadline and errors.As-recoverable through arbitrary
// wrapping, and the same holds for audit violations — including through
// a *par.PointError chain, which is how campaigns see them.
func TestSentinelRoundTrips(t *testing.T) {
	de := &sim.DeadlineError{Budget: time.Second, Elapsed: 2 * time.Second}
	ve := &audit.ViolationError{V: audit.Violation{Rule: audit.RuleTCPSeqOrder, Severity: audit.SevError}}

	wrappings := []func(error) error{
		func(e error) error { return e },
		func(e error) error { return fmt.Errorf("layer: %w", e) },
		func(e error) error { return fmt.Errorf("outer: %w", fmt.Errorf("inner: %w", e)) },
		func(e error) error { return &par.PointError{Index: 1, Err: e} },
		func(e error) error { return &par.PointError{Err: fmt.Errorf("point: %w", e)} },
	}
	for i, wrap := range wrappings {
		if err := wrap(de); !errors.Is(err, sim.ErrDeadline) {
			t.Errorf("wrapping %d: errors.Is(…, sim.ErrDeadline) = false", i)
		} else {
			var got *sim.DeadlineError
			if !errors.As(err, &got) || got.Budget != time.Second {
				t.Errorf("wrapping %d: errors.As lost the deadline payload", i)
			}
		}
		if err := wrap(ve); !errors.Is(err, audit.ErrViolation) {
			t.Errorf("wrapping %d: errors.Is(…, audit.ErrViolation) = false", i)
		} else {
			var got *audit.ViolationError
			if !errors.As(err, &got) || got.V.Rule != audit.RuleTCPSeqOrder {
				t.Errorf("wrapping %d: errors.As lost the violation payload", i)
			}
		}
	}
}

// End to end: a driver whose scenario uses an unknown wall material dies
// inside sim.Medium's trace panic; the campaign must classify it as a
// structured geometry failure naming the material, not a generic panic,
// and leave its neighbours unharmed.
func TestCampaignSurfacesGeometryError(t *testing.T) {
	good, ok := Get("T1")
	if !ok {
		t.Fatal("T1 not registered")
	}
	runners := []Runner{
		{ID: "Z8", Title: "bad material", Run: func(Options) core.Result {
			room := geom.Box(0, 0, 6, 4, "vibranium")
			s := sim.NewScheduler()
			m := sim.NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), 1)
			a := m.AddRadio(&sim.Radio{Name: "a", Pos: geom.V(1, 1)})
			b := m.AddRadio(&sim.Radio{Name: "b", Pos: geom.V(5, 3)})
			m.RxPowerDBm(a, b) // traces the pair → panics on the unknown material
			return core.Result{ID: "Z8"}
		}},
		good,
	}
	sts := collectStatuses(runners, Options{Seed: 1, Quick: true}, Campaign{Parallel: 2})
	if sts[0].Failure == nil || sts[0].Result.Pass() {
		t.Fatalf("geometry failure not reported: %+v", sts[0].Result)
	}
	var ge *rf.GeometryError
	if !failureAs(sts[0].Failure, &ge) {
		t.Fatalf("geometry failure misclassified: %v", sts[0].Failure)
	}
	if !strings.Contains(ge.Err.Error(), "vibranium") {
		t.Errorf("geometry error lost the material name: %v", ge.Err)
	}
	found := false
	for _, c := range sts[0].Result.Checks {
		if c.Name == "geometry" && !c.Pass {
			found = true
		}
	}
	if !found {
		t.Errorf("no failing geometry check in %+v", sts[0].Result.Checks)
	}
	if sts[1].Failure != nil || !sts[1].Result.Pass() {
		t.Errorf("healthy neighbour harmed: %+v", sts[1].Result)
	}
}

// End to end: a wall material with a negative loss is refused like an
// unknown one — the driver dies in the trace and the campaign reports a
// structured geometry failure naming the material.
func TestCampaignSurfacesInvalidMaterial(t *testing.T) {
	runners := []Runner{
		{ID: "Z9", Title: "invalid material", Run: func(Options) core.Result {
			room := geom.Box(0, 0, 6, 4, "brick")
			room.AddWall(geom.V(3, 0), geom.V(3, 4), "gain-film")
			s := sim.NewScheduler()
			m := sim.NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), 1)
			reg := mat.DefaultRegistry()
			reg.Register(mat.Material{Name: "gain-film", ReflectLossDB: 3, PenetrationLossDB: -20})
			m.Tracer().Materials = reg
			a := m.AddRadio(&sim.Radio{Name: "a", Pos: geom.V(1, 1)})
			b := m.AddRadio(&sim.Radio{Name: "b", Pos: geom.V(5, 3)})
			m.RxPowerDBm(a, b) // traces the pair → panics on the invalid material
			return core.Result{ID: "Z9"}
		}},
	}
	sts := collectStatuses(runners, Options{Seed: 1, Quick: true}, Campaign{Parallel: 1})
	if sts[0].Failure == nil || sts[0].Result.Pass() {
		t.Fatalf("geometry failure not reported: %+v", sts[0].Result)
	}
	var ge *rf.GeometryError
	if !failureAs(sts[0].Failure, &ge) {
		t.Fatalf("invalid material misclassified: %v", sts[0].Failure)
	}
	if !strings.Contains(ge.Err.Error(), `mat: invalid material "gain-film"`) {
		t.Errorf("geometry error lost the material: %v", ge.Err)
	}
	found := false
	for _, c := range sts[0].Result.Checks {
		if c.Name == "geometry" && !c.Pass {
			found = true
		}
	}
	if !found {
		t.Errorf("no failing geometry check in %+v", sts[0].Result.Checks)
	}
}

// End to end: a driver aborted by the strict auditor must surface
// through RunCampaign as a FAIL with the violated rule named, without
// harming its neighbours.
func TestCampaignSurfacesAuditViolation(t *testing.T) {
	prev := audit.SetMode(audit.Strict)
	audit.Reset()
	defer func() {
		audit.SetMode(prev)
		audit.Reset()
	}()
	good, ok := Get("T1")
	if !ok {
		t.Fatal("T1 not registered")
	}
	runners := []Runner{
		{ID: "Z3", Title: "violates", Run: func(Options) core.Result {
			audit.Reportf(audit.RuleSchedTimeMonotone, time.Millisecond, "time ran backwards")
			return core.Result{ID: "Z3"}
		}},
		good,
	}
	sts := collectStatuses(runners, Options{Seed: 1, Quick: true}, Campaign{Parallel: 2})
	if sts[0].Failure == nil || sts[0].Result.Pass() {
		t.Fatalf("strict violation not reported as failure: %+v", sts[0].Result)
	}
	var ve *audit.ViolationError
	if !failureAs(sts[0].Failure, &ve) {
		t.Fatalf("violation failure misclassified: %v", sts[0].Failure)
	}
	if ve.V.Rule != audit.RuleSchedTimeMonotone {
		t.Errorf("rule = %s, want %s", ve.V.Rule, audit.RuleSchedTimeMonotone)
	}
	want := "violated " + string(audit.RuleSchedTimeMonotone)
	found := false
	for _, c := range sts[0].Result.Checks {
		if c.Name == "audit" && c.Got == want {
			found = true
		}
	}
	if !found {
		t.Errorf("FAIL result does not name the rule: %+v", sts[0].Result.Checks)
	}
	if sts[1].Failure != nil || !sts[1].Result.Pass() {
		t.Errorf("healthy neighbour harmed: %+v", sts[1].Result)
	}
}
