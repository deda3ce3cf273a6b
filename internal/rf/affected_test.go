package rf

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/geom"
)

// The invalidation predicate's contract, checked without its naive
// twin: a pair PairAffected reports unaffected re-traces to exactly the
// paths it had before the moves.

// officeWalk adds a blocking "human" obstacle on the centre line of the
// middle room row of an n-room office floor and returns the floor, the
// obstacle's wall index and its positions on a closed 16-step walk:
// eight steps across the floor through the door gaps, eight back.
func officeWalk(n int) (*geom.Room, int, []geom.Segment) {
	room := geom.OfficeFloor(n)
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	y := geom.OfficeCenter(n, rows/2*cols).Y
	at := func(x float64) geom.Segment { return geom.Seg(geom.V(x, y-0.25), geom.V(x, y+0.25)) }
	x0, x1 := 0.3, float64(cols)*4-0.3
	start := at(x0)
	room.AddObstacle(start.A, start.B, "human")
	var walk []geom.Segment
	for s := 1; s <= 16; s++ {
		k := min(s, 16-s)
		walk = append(walk, at(x0+(x1-x0)*float64(k)/8))
	}
	return room, len(room.Walls) - 1, walk
}

// officeEnds places two endpoints in each listed room of an n-room
// office floor, off the room centre in opposite directions.
func officeEnds(n int, rooms []int) []geom.Vec2 {
	var ends []geom.Vec2
	for _, ri := range rooms {
		c := geom.OfficeCenter(n, ri)
		ends = append(ends, c.Add(geom.V(-1.1, -0.6)), c.Add(geom.V(1.3, 0.7)))
	}
	return ends
}

// warmMoveLog walks the obstacle through ten laps of its closed walk, so
// the room's move log has reached the length at which it compacts in
// place: later moves do not grow it.
func warmMoveLog(room *geom.Room, ob int, walk []geom.Segment) {
	for k := range 10 * len(walk) {
		room.MoveWall(ob, walk[k%len(walk)])
	}
}

// snapshot copies the room's walls: the geometry before a batch of moves.
func snapshot(room *geom.Room) *geom.Room {
	return &geom.Room{Walls: append([]geom.Wall(nil), room.Walls...)}
}

// losTouches reports whether the straight tx→rx leg crosses a moved
// segment: the pair has a candidate that touches the moves.
func losTouches(tx, rx geom.Vec2, moves []geom.WallMove) bool {
	leg := geom.Seg(tx, rx)
	for _, m := range moves {
		for _, s := range []geom.Segment{m.Old, m.New} {
			if _, _, ok := leg.IntersectInterior(s, blockEps); ok {
				return true
			}
		}
	}
	return false
}

// TestPairAffectedSound checks both predicates (indexed and naive)
// against naive traces of the geometry before and after each move batch,
// on random rooms across loss budgets and reflection orders and on an
// office floor walk that also nudges random walls. Every unaffected pair
// must trace bit-identically in both geometries; both outcomes must
// occur, and so must unaffected pairs whose line of sight crosses a moved
// segment — pairs only the blocking and budget rule clears.
func TestPairAffectedSound(t *testing.T) {
	var affected, unaffected, shielded int
	check := func(ctx string, before, after *geom.Room, moves []geom.WallMove, order int, budget float64, tx, rx geom.Vec2) {
		t.Helper()
		indexed := NewTracer(after, 60e9)
		naive := NewTracer(after, 60e9)
		naive.Naive = true
		oldTr := NewTracer(before, 60e9)
		oldTr.Naive = true
		newTr := NewTracer(after, 60e9)
		newTr.Naive = true
		for _, tr := range []*Tracer{indexed, naive, oldTr, newTr} {
			tr.MaxOrder, tr.MaxLossDB = order, budget
		}
		got, want := indexed.PairAffected(tx, rx, moves), naive.PairAffected(tx, rx, moves)
		if got != want {
			t.Fatalf("%s: PairAffected indexed=%v naive=%v for %v→%v", ctx, got, want, tx, rx)
		}
		if got {
			affected++
			return
		}
		unaffected++
		if losTouches(tx, rx, moves) {
			shielded++
		}
		old, err1 := oldTr.Trace(tx, rx)
		cur, err2 := newTr.Trace(tx, rx)
		if err1 != nil || err2 != nil {
			t.Fatalf("%s: trace errors %v, %v", ctx, err1, err2)
		}
		if !pathsIdentical(old, cur) {
			t.Fatalf("%s: %v→%v reported unaffected (order %d, budget %v, moves %v) but its paths changed\nbefore: %v\nafter:  %v",
				ctx, tx, rx, order, budget, moves, old, cur)
		}
	}

	rng := rand.New(rand.NewSource(59))
	for round := 0; round < 300; round++ {
		room := equivRandRoom(rng, 4+rng.Intn(20))
		order := rng.Intn(3)
		budget := []float64{0, 80 + rng.Float64()*40, 140}[rng.Intn(3)]
		before := snapshot(room)
		epoch := room.Epoch()
		for m := 1 + rng.Intn(3); m > 0; m-- {
			wi := rng.Intn(len(room.Walls))
			s := room.Walls[wi].Segment
			if rng.Intn(2) == 0 {
				d := geom.V(rng.Float64()*2-1, rng.Float64()*2-1)
				room.MoveWall(wi, geom.Seg(s.A.Add(d), s.B.Add(d)))
			} else {
				a := geom.V(rng.Float64()*15, rng.Float64()*12)
				room.MoveWall(wi, geom.Seg(a, a.Add(geom.V(rng.Float64()*2-1, rng.Float64()*2-1))))
			}
		}
		moves, _ := room.MovesSince(epoch)
		for q := 0; q < 6; q++ {
			tx := geom.V(rng.Float64()*15, rng.Float64()*12)
			rx := geom.V(rng.Float64()*15, rng.Float64()*12)
			check(fmt.Sprintf("round %d", round), before, room, moves, order, budget, tx, rx)
		}
	}

	const n = 16
	room, ob, walk := officeWalk(n)
	orng := rand.New(rand.NewSource(61))
	near := func() geom.Vec2 {
		return geom.OfficeCenter(n, orng.Intn(n)).Add(geom.V(orng.Float64()*3.2-1.6, orng.Float64()*2.2-1.1))
	}
	for step, seg := range walk {
		before := snapshot(room)
		epoch := room.Epoch()
		room.MoveWall(ob, seg)
		if step%3 == 2 {
			wi := orng.Intn(ob)
			s := room.Walls[wi].Segment
			d := geom.V(orng.Float64()*0.2-0.1, orng.Float64()*0.2-0.1)
			room.MoveWall(wi, geom.Seg(s.A.Add(d), s.B.Add(d)))
		}
		moves, _ := room.MovesSince(epoch)
		for q := 0; q < 10; q++ {
			check(fmt.Sprintf("office step %d", step), before, room, moves, 2, 140, near(), near())
		}
	}

	if affected == 0 || unaffected == 0 || shielded == 0 {
		t.Fatalf("%d affected, %d unaffected, %d unaffected with a touching line of sight; all three must occur",
			affected, unaffected, shielded)
	}
}

// TestOfficeWalkRetraces pins the work the predicate leaves: the number
// of pairs it reports affected — the re-traces a channel cache runs —
// over a fixed obstacle walk on 16- and 64-room floors, with two
// endpoints in each of the rooms the repository benchmark's floors use.
// Before PairAffected judged candidates by the unmoved walls it reported
// 1982 and 444 of the 2112 and 480 checks. It also pins the endpoint
// views the predicate builds and reuses (views.go), the exact bounce
// evaluations its loops run, and those of Trace over every ordered
// endpoint pair with the obstacle at its start, with the paths that
// trace returns. Before the bounce-point precull (bounceMisses) the
// walk ran 1,001,645 and 919,776 exact evaluations and Trace 112,264
// and 190,732, with the same paths.
func TestOfficeWalkRetraces(t *testing.T) {
	for _, tc := range []struct {
		n, want    int
		rooms      []int
		reused     int
		evals      uint64
		paths      int
		traceEvals uint64
	}{
		{16, 180, []int{0, 5, 10, 15, 3, 12}, 3736, 177193, 361, 28957},
		{64, 8, []int{9, 36, 54}, 768, 90577, 40, 27735},
	} {
		room, ob, walk := officeWalk(tc.n)
		ends := officeEnds(tc.n, tc.rooms)
		tracer := NewTracer(room, FreqChannel2Hz)
		paths := 0
		for i, a := range ends {
			for j, b := range ends {
				if i == j {
					continue
				}
				ps, err := tracer.Trace(a, b)
				if err != nil {
					t.Fatal(err)
				}
				paths += len(ps)
			}
		}
		if paths != tc.paths || tracer.bounceEvals != tc.traceEvals {
			t.Errorf("r%d: Trace returned %d paths from %d exact bounce evaluations, want %d from %d",
				tc.n, paths, tracer.bounceEvals, tc.paths, tc.traceEvals)
		}
		tr := NewTracer(room, FreqChannel2Hz)
		got, checks := 0, 0
		for _, seg := range walk {
			epoch := room.Epoch()
			room.MoveWall(ob, seg)
			moves, _ := room.MovesSince(epoch)
			for i, a := range ends {
				for j, b := range ends {
					if i == j {
						continue
					}
					checks++
					if tr.PairAffected(a, b, moves) {
						got++
					}
				}
			}
		}
		if got != tc.want {
			t.Errorf("r%d: %d of %d checks report the pair affected, want %d", tc.n, got, checks, tc.want)
		}
		// Every endpoint gets one tx view and one rx view per step; every
		// other second-order stage reuses them (calls that stop at line of
		// sight or first order use none).
		if built := 2 * len(ends) * len(walk); tr.views.built != built || tr.views.reused != tc.reused {
			t.Errorf("r%d: %d endpoint views built and %d reused, want %d and %d",
				tc.n, tr.views.built, tr.views.reused, built, tc.reused)
		}
		if tr.bounceEvals != tc.evals {
			t.Errorf("r%d: PairAffected ran %d exact bounce evaluations, want %d", tc.n, tr.bounceEvals, tc.evals)
		}
	}
}

// BenchmarkPairAffectedOfficeWalk times the invalidation predicate on
// TestOfficeWalkRetraces' 16-room walk in the repository benchmark's
// order: after each obstacle step, every ordered endpoint pair, tx-major.
// One op is one PairAffected call; the ops cycle through the closed
// walk's (step, pair) sequence, after one untimed lap.
func BenchmarkPairAffectedOfficeWalk(b *testing.B) {
	room, ob, walk := officeWalk(16)
	ends := officeEnds(16, []int{0, 5, 10, 15, 3, 12})
	warmMoveLog(room, ob, walk)
	tr := NewTracer(room, FreqChannel2Hz)
	var pairs [][2]geom.Vec2
	for i, a := range ends {
		for j, c := range ends {
			if i != j {
				pairs = append(pairs, [2]geom.Vec2{a, c})
			}
		}
	}
	var moves []geom.WallMove
	step, k := 0, 0
	call := func() {
		if k == 0 {
			epoch := room.Epoch()
			room.MoveWall(ob, walk[step])
			step = (step + 1) % len(walk)
			moves, _ = room.AppendMovesSince(moves[:0], epoch)
		}
		tr.PairAffected(pairs[k][0], pairs[k][1], moves)
		k = (k + 1) % len(pairs)
	}
	for range len(walk) * len(pairs) {
		call()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for range b.N {
		call()
	}
}

// TestPairAffectedViewReuse keeps one indexed tracer across obstacle
// walks on 16- and 64-room floors, so later calls of a move batch reuse
// the endpoint views earlier calls built, and checks every ordered
// endpoint pair against the naive predicate three ways: tx-major (the
// repository benchmark's order), rx-major (sim.Medium.syncRoom's), and
// interleaving two different batches at the same epoch — the moves
// since the step began and since one epoch earlier. Every third step
// also nudges a random wall. Once, an obstacle is added and the pairs
// are asked again with the same moves: only the room's epoch and wall
// count tell that batch from the one before.
func TestPairAffectedViewReuse(t *testing.T) {
	for _, tc := range []struct {
		n, steps int
		rooms    []int
	}{
		{16, 16, []int{0, 5, 10}},
		{64, 5, []int{36, 54}},
	} {
		room, ob, walk := officeWalk(tc.n)
		ends := officeEnds(tc.n, tc.rooms)
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		rng := rand.New(rand.NewSource(int64(67 + tc.n)))
		var hits, misses int
		want := func(moves []geom.WallMove) [][]bool {
			w := make([][]bool, len(ends))
			for a := range ends {
				w[a] = make([]bool, len(ends))
				for b := range ends {
					if a != b {
						w[a][b] = naive.PairAffected(ends[a], ends[b], moves)
					}
				}
			}
			return w
		}
		check := func(ctx string, step, a, b int, moves []geom.WallMove, w [][]bool) {
			t.Helper()
			got := indexed.PairAffected(ends[a], ends[b], moves)
			if got != w[a][b] {
				t.Fatalf("r%d step %d %s: PairAffected indexed=%v naive=%v for %v→%v moves=%v",
					tc.n, step, ctx, got, w[a][b], ends[a], ends[b], moves)
			}
			if got {
				hits++
			} else {
				misses++
			}
		}
		txMajor := func(ctx string, step int, moves []geom.WallMove, w [][]bool) {
			t.Helper()
			for a := range ends {
				for b := range ends {
					if a != b {
						check(ctx, step, a, b, moves, w)
					}
				}
			}
		}
		for step, seg := range walk[:tc.steps] {
			epoch := room.Epoch()
			room.MoveWall(ob, seg)
			if step%3 == 2 {
				wi := rng.Intn(ob)
				s := room.Walls[wi].Segment
				d := geom.V(rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1)
				room.MoveWall(wi, geom.Seg(s.A.Add(d), s.B.Add(d)))
			}
			cur, _ := room.MovesSince(epoch)
			prev, _ := room.MovesSince(epoch - 1)
			wCur, wPrev := want(cur), want(prev)
			txMajor("tx-major", step, cur, wCur)
			for b := range ends {
				for a := range ends {
					if a != b {
						check("rx-major", step, a, b, cur, wCur)
					}
				}
			}
			for a := range ends {
				for b := range ends {
					if a != b {
						check("interleaved", step, a, b, cur, wCur)
						check("interleaved, one epoch earlier", step, a, b, prev, wPrev)
					}
				}
			}
			if step == tc.steps/2 {
				// Views of cur, then the same moves after an edit that
				// shields the walking obstacle: candidates touching it
				// now die on the new blocking wall.
				txMajor("before AddObstacle", step, cur, wCur)
				c := seg.A.Add(seg.B).Scale(0.5)
				room.AddObstacle(c.Add(geom.V(0.2, -0.6)), c.Add(geom.V(0.2, 0.6)), "metal")
				txMajor("after AddObstacle", step, cur, want(cur))
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("r%d: %d affected and %d unaffected checks; both outcomes must occur", tc.n, hits, misses)
		}
	}
}

// TestPairAffectedViewCap asks more distinct endpoints within one batch
// than a tracer keeps views for: the views restart, stay bounded, and
// every answer still matches the naive predicate.
func TestPairAffectedViewCap(t *testing.T) {
	rng := rand.New(rand.NewSource(71))
	room := equivRandRoom(rng, 12)
	indexed := NewTracer(room, 60e9)
	naive := NewTracer(room, 60e9)
	naive.Naive = true
	epoch := room.Epoch()
	s := room.Walls[3].Segment
	room.MoveWall(3, geom.Seg(s.A.Add(geom.V(0.4, 0.3)), s.B.Add(geom.V(0.4, 0.3))))
	moves, _ := room.MovesSince(epoch)
	rx := geom.V(7, 6)
	for q := 0; q < 3*maxEndpointViews; q++ {
		tx := geom.V(rng.Float64()*15, rng.Float64()*12)
		if got, want := indexed.PairAffected(tx, rx, moves), naive.PairAffected(tx, rx, moves); got != want {
			t.Fatalf("query %d: PairAffected indexed=%v naive=%v for %v→%v", q, got, want, tx, rx)
		}
		if n := len(indexed.views.tx); n > maxEndpointViews {
			t.Fatalf("query %d: %d tx views kept, want at most %d", q, n, maxEndpointViews)
		}
	}
	if indexed.views.built <= maxEndpointViews {
		t.Fatalf("%d views built; the cap was never reached", indexed.views.built)
	}
}
