package sim

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rf"
)

func testMedium(room *geom.Room, n int) (*Medium, []*Radio) {
	s := NewScheduler()
	m := NewMedium(s, room, rf.FreqChannel2Hz, rf.DefaultBudget(), 11)
	radios := make([]*Radio, n)
	for i := range radios {
		radios[i] = m.AddRadio(&Radio{Name: string(rune('a' + i))})
	}
	return m, radios
}

// traced reports whether the pair's entry holds a current trace.
func traced(m *Medium, a, b *Radio) bool { return m.entry(a.ID, b.ID).traced }

// tracedPairs counts the entries holding a current trace.
func tracedPairs(m *Medium) int {
	n := 0
	for _, row := range m.pairs {
		for i := range row {
			if row[i].traced {
				n++
			}
		}
	}
	return n
}

// The reverse orientation of a pair is the exact mirror of the canonical
// one: the view shares the canonical weights, swaps departure and
// arrival, and the power it yields matches a scalar evaluation of the
// mirrored trace.
func TestChannelReciprocity(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	room.AddWall(geom.V(-3, -1.5), geom.V(8, -1.5), "glass")
	m, r := testMedium(room, 2)
	r[0].Pos = geom.V(0, 0)
	r[1].Pos = geom.V(5, 0.7)

	// Reciprocity at the power level with isotropic patterns: identical.
	pf := m.RxPowerDBm(r[0], r[1])
	pb := m.RxPowerDBm(r[1], r[0])
	if math.Abs(pf-pb) > 1e-9 {
		t.Errorf("received power not reciprocal: %v vs %v dBm", pf, pb)
	}

	e := m.entry(r[0].ID, r[1].ID)
	if e.fwd.Len() < 2 || e.rev.Len() != e.fwd.Len() {
		t.Fatalf("ray counts: fwd %d, rev %d", e.fwd.Len(), e.rev.Len())
	}
	if &e.rev.WLin[0] != &e.fwd.WLin[0] {
		t.Error("reverse view does not share the canonical weights")
	}
	for i := range e.fwd.WLin {
		if e.fwd.AoD[i] != e.rev.AoA[i] || e.fwd.AoA[i] != e.rev.AoD[i] {
			t.Errorf("ray %d: angles not swapped: fwd AoD=%v AoA=%v, rev AoD=%v AoA=%v",
				i, e.fwd.AoD[i], e.fwd.AoA[i], e.rev.AoD[i], e.rev.AoA[i])
		}
	}

	// Asymmetric patterns make a wrong swap visible in the power: each
	// orientation must match the scalar sum over its own trace.
	r[0].SetTxPattern(func(a float64) float64 { return 12 * math.Cos(a) })
	r[0].SetRxPattern(func(a float64) float64 { return 6 * math.Sin(a) })
	r[1].SetTxPattern(func(a float64) float64 { return -8 * math.Sin(a) })
	r[1].SetRxPattern(func(a float64) float64 { return 9 * math.Cos(a+1) })
	for _, pair := range [][2]*Radio{{r[0], r[1]}, {r[1], r[0]}} {
		got := m.RxPowerDBm(pair[0], pair[1])
		want := scalarRxPowerDBm(m, pair[0], pair[1])
		if d := math.Abs(got - want); d > wlinTolDB {
			t.Errorf("%s→%s: %.6f vs scalar %.6f dBm", pair[0].Name, pair[1].Name, got, want)
		}
	}
}

// InvalidateRadio must drop exactly the pairs touching that radio.
func TestInvalidateRadioSelective(t *testing.T) {
	m, r := testMedium(geom.Open(), 3)
	r[0].Pos, r[1].Pos, r[2].Pos = geom.V(0, 0), geom.V(3, 0), geom.V(0, 4)
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[2], r[0])
	m.RxPowerDBm(r[1], r[2])
	if n := tracedPairs(m); n != 3 {
		t.Fatalf("%d pairs traced, want 3", n)
	}
	m.InvalidateRadio(r[0].ID)
	if n := tracedPairs(m); n != 1 {
		t.Fatalf("%d pairs traced after InvalidateRadio, want 1", n)
	}
	if !traced(m, r[1], r[2]) {
		t.Error("the pair not touching the moved radio was dropped")
	}
}

// A logged wall move must invalidate only the pairs the moved segment
// can affect; a structural edit must drop every pair.
func TestSyncRoomSelectiveInvalidation(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 4)
	// Pair (0,1) straddles the walker's track; pair (2,3) lives far away.
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)
	r[2].Pos, r[3].Pos = geom.V(40, 40), geom.V(43, 40)
	m.RxPowerDBm(r[0], r[1])
	m.RxPowerDBm(r[3], r[2])
	if n := tracedPairs(m); n != 2 {
		t.Fatalf("%d pairs traced, want 2", n)
	}

	// Walk the blocker onto the near pair's line of sight.
	room.MoveWall(walker, geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)))
	m.syncRoom()
	if traced(m, r[0], r[1]) {
		t.Error("pair crossed by the moved blocker survived the move")
	}
	if !traced(m, r[2], r[3]) {
		t.Error("distant pair was needlessly invalidated")
	}

	// The re-traced channel must reflect the new geometry: the blocker
	// now sits on the LOS, so the direct path is heavily attenuated.
	before := m.RxPowerDBm(r[0], r[1])
	room.MoveWall(walker, geom.Seg(geom.V(1.5, 5), geom.V(1.5, 5.5)))
	after := m.RxPowerDBm(r[0], r[1])
	if after <= before+10 {
		t.Errorf("moving the blocker off the LOS should restore the link: %v -> %v dBm", before, after)
	}

	// Structural edit: everything goes.
	m.RxPowerDBm(r[2], r[3])
	room.AddWall(geom.V(-5, 50), geom.V(5, 50), "glass")
	m.syncRoom()
	if n := tracedPairs(m); n != 0 {
		t.Errorf("structural edit left %d traced pairs", n)
	}
}

// TestBlockageWalkSteadyStateAllocFree pins the cost of the paper's
// blockage-walker pattern (experiment X1): once the entry and the
// tracer's buffers are warm, a wall move plus the selective invalidation
// plus the re-trace and power reads in both orientations must not
// allocate — the trace lands in the medium's one path scratch and the
// bundle is rebuilt in its own storage.
func TestBlockageWalkSteadyStateAllocFree(t *testing.T) {
	room := geom.Open()
	room.AddWall(geom.V(-3, 2), geom.V(8, 2), "metal")
	room.AddObstacle(geom.V(1.5, -1), geom.V(1.5, -0.5), "human")
	walker := len(room.Walls) - 1
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)

	// Warm both move positions, both orientations, and the buffers.
	positions := []geom.Segment{
		geom.Seg(geom.V(1.5, -0.2), geom.V(1.5, 0.3)),
		geom.Seg(geom.V(1.5, -1), geom.V(1.5, -0.5)),
	}
	for i := 0; i < 4; i++ {
		room.MoveWall(walker, positions[i%2])
		m.RxPowerDBm(r[0], r[1])
		m.RxPowerDBm(r[1], r[0])
	}
	step := 0
	allocs := testing.AllocsPerRun(200, func() {
		room.MoveWall(walker, positions[step%2])
		step++
		if math.IsInf(m.RxPowerDBm(r[0], r[1]), -1) {
			t.Fatal("channel lost its paths")
		}
		m.RxPowerDBm(r[1], r[0])
	})
	if allocs != 0 {
		t.Fatalf("blockage-walk steady state allocates %v per step, want 0", allocs)
	}
}

// InvalidateChannels still works as the blunt instrument and resyncs the
// epoch so a pending room change is not double-processed.
func TestInvalidateChannelsResyncsEpoch(t *testing.T) {
	room := geom.Open()
	room.AddObstacle(geom.V(1, -1), geom.V(1, 1), "human")
	m, r := testMedium(room, 2)
	r[0].Pos, r[1].Pos = geom.V(0, 0), geom.V(3, 0)
	m.RxPowerDBm(r[0], r[1])
	room.MoveWall(0, geom.Seg(geom.V(1.2, -1), geom.V(1.2, 1)))
	m.InvalidateChannels()
	if n := tracedPairs(m); n != 0 {
		t.Fatalf("InvalidateChannels left %d traced pairs", n)
	}
	if m.roomEpoch != room.Epoch() {
		t.Error("InvalidateChannels did not resync the room epoch")
	}
}
