package audit_test

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/fault"
	"repro/internal/geom"
	"repro/internal/mac/wigig"
	"repro/internal/transport"
)

// The metamorphic relations: transformations of a scenario that provably
// cannot change its physics must leave every metric bit-identical, and
// transformations with a known direction (more blockage) must move the
// metrics the known way. Each scenario runs under the strict auditor, so
// the suite doubles as an invariant-cleanliness check over fault-laden
// runs.

// metaSpec parameterizes the base scenario along exactly the axes the
// relations vary: a coordinate offset, the device labels, and the fault
// schedule.
type metaSpec struct {
	offset    geom.Vec2 // translates every coordinate in the scenario
	dock, sta string    // device labels (fault targets follow them)
	faults    []fault.Blockage
	naive     bool // route ray tracing through the brute-force reference
}

// runMeta executes a 3 m WiGig link with a reflecting wall and a TCP
// flow under the given spec, strict-audited, and returns the full metric
// fingerprint: delivered bytes, TCP recovery counters, and both
// devices' MAC statistics.
func runMeta(t *testing.T, sp metaSpec) string {
	t.Helper()
	prev := audit.SetMode(audit.Strict)
	audit.Reset()
	defer func() {
		audit.SetMode(prev)
		audit.Reset()
	}()

	const seed = 7
	room := geom.Open()
	room.AddWall(geom.V(-2, 1.5).Add(sp.offset), geom.V(6, 1.5).Add(sp.offset), "glass")
	sc := core.NewScenario(room, seed)
	sc.Med.Budget.AtmosphericSigmaDB = 0
	sc.Med.Tracer().Naive = sp.naive
	l := sc.AddWiGigLink(
		wigig.Config{Name: sp.dock, Pos: geom.V(0, 0).Add(sp.offset), Seed: seed + 1},
		wigig.Config{Name: sp.sta, Pos: geom.V(3, 0).Add(sp.offset), Seed: seed + 2},
	)
	if !l.WaitAssociated(sc.Sched, time.Second) {
		t.Fatal("link did not associate")
	}
	if err := fault.Install(sc.Med, sp.faults...); err != nil {
		t.Fatalf("install schedule: %v", err)
	}
	flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 800e6})
	flow.Start()
	sc.Run(400 * time.Millisecond)
	return fmt.Sprintf("delivered=%d retx=%d rto=%d dock=%+v sta=%+v",
		flow.Delivered, flow.Retransmits, flow.Timeouts, l.Dock.Stats, l.Station.Stats)
}

// baseFaults is three disjoint fixed-length blockage bursts on the
// link. Blockage draws nothing, so the bursts survive reordering
// untouched. The link names are patched per spec.
func baseFaults(dock, sta string) []fault.Blockage {
	link := [2]string{dock, sta}
	return []fault.Blockage{
		{Link: link, At: 80 * time.Millisecond, Duration: 30 * time.Millisecond, DepthDB: 25},
		{Link: link, At: 180 * time.Millisecond, Duration: 10 * time.Millisecond, DepthDB: 30},
		{Link: link, At: 260 * time.Millisecond, Duration: 20 * time.Millisecond, DepthDB: 35},
	}
}

// Device labels are bookkeeping: renaming both ends of the link (and the
// fault targets with them) must not move a single counter.
func TestMetamorphicRelabelInvariance(t *testing.T) {
	a := runMeta(t, metaSpec{dock: "dock", sta: "sta", faults: baseFaults("dock", "sta")})
	b := runMeta(t, metaSpec{dock: "left-anchor", sta: "roaming-node",
		faults: baseFaults("left-anchor", "roaming-node")})
	if a != b {
		t.Errorf("relabeling changed metrics:\n  a: %s\n  b: %s", a, b)
	}
}

// The tracer's spatial index is an acceleration structure, not a model
// change: running the identical fault-laden scenario with the indexed
// tracer and with the brute-force reference (rf.Tracer.Naive) must
// produce a bit-identical metric fingerprint. Any divergence means the
// index skipped a path the naive enumeration finds (or vice versa).
func TestMetamorphicTracerIndexInvariance(t *testing.T) {
	a := runMeta(t, metaSpec{dock: "dock", sta: "sta", faults: baseFaults("dock", "sta")})
	b := runMeta(t, metaSpec{dock: "dock", sta: "sta", faults: baseFaults("dock", "sta"),
		naive: true})
	if a != b {
		t.Errorf("spatial index changed metrics:\n  indexed: %s\n  naive:   %s", a, b)
	}
}

// Free-space physics is translation invariant, and a dyadic offset keeps
// every coordinate difference exactly representable — the translated
// room must reproduce the original bit for bit.
func TestMetamorphicTranslationInvariance(t *testing.T) {
	a := runMeta(t, metaSpec{dock: "dock", sta: "sta", faults: baseFaults("dock", "sta")})
	b := runMeta(t, metaSpec{offset: geom.V(12.5, -3.25), dock: "dock", sta: "sta",
		faults: baseFaults("dock", "sta")})
	if a != b {
		t.Errorf("translation changed metrics:\n  a: %s\n  b: %s", a, b)
	}
}

// A schedule of disjoint bursts compiles to the same hooks in any
// declaration order, so permuting its lines must not change anything
// downstream.
func TestMetamorphicFaultReorderInvariance(t *testing.T) {
	fs := baseFaults("dock", "sta")
	perms := [][]fault.Blockage{
		{fs[0], fs[1], fs[2]},
		{fs[2], fs[0], fs[1]},
		{fs[1], fs[2], fs[0]},
	}
	want := ""
	for i, p := range perms {
		got := runMeta(t, metaSpec{dock: "dock", sta: "sta", faults: p})
		if i == 0 {
			want = got
			continue
		}
		if got != want {
			t.Errorf("permutation %d changed metrics:\n  want: %s\n  got:  %s", i, got, want)
		}
	}
}

// Direction relation: lengthening an 80 dB blockage burst can only cost
// throughput, never buy it.
func TestMetamorphicBlockageMonotone(t *testing.T) {
	durs := []time.Duration{0, 100 * time.Millisecond, 400 * time.Millisecond}
	delivered := make([]int64, len(durs))
	for i, d := range durs {
		var fs []fault.Blockage
		if d > 0 {
			fs = []fault.Blockage{{Link: [2]string{"dock", "sta"},
				At: 50 * time.Millisecond, Duration: d, DepthDB: 80}}
		}
		prev := audit.SetMode(audit.Strict)
		audit.Reset()
		room := geom.Open()
		sc := core.NewScenario(room, 7)
		sc.Med.Budget.AtmosphericSigmaDB = 0
		l := sc.AddWiGigLink(
			wigig.Config{Name: "dock", Pos: geom.V(0, 0), Seed: 8},
			wigig.Config{Name: "sta", Pos: geom.V(3, 0), Seed: 9},
		)
		if !l.WaitAssociated(sc.Sched, time.Second) {
			t.Fatal("link did not associate")
		}
		if err := fault.Install(sc.Med, fs...); err != nil {
			t.Fatalf("install schedule: %v", err)
		}
		flow := transport.NewFlow(sc.Sched, l.Station, l.Dock, transport.Config{PacingBps: 800e6})
		flow.Start()
		sc.Run(600 * time.Millisecond)
		delivered[i] = flow.Delivered
		audit.SetMode(prev)
		audit.Reset()
	}
	for i := 1; i < len(delivered); i++ {
		if delivered[i] > delivered[i-1] {
			t.Errorf("throughput increased with more blockage: %v bursts -> %v bytes",
				durs, delivered)
			break
		}
	}
	if delivered[0] == delivered[len(delivered)-1] {
		t.Errorf("400 ms of 80 dB blockage had no effect: %v bytes", delivered)
	}
}
