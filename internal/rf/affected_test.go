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
// 1982 and 444 of the 2112 and 480 checks.
func TestOfficeWalkRetraces(t *testing.T) {
	for _, tc := range []struct {
		n, want int
		rooms   []int
	}{
		{16, 180, []int{0, 5, 10, 15, 3, 12}},
		{64, 8, []int{9, 36, 54}},
	} {
		room, ob, walk := officeWalk(tc.n)
		tr := NewTracer(room, FreqChannel2Hz)
		var ends []geom.Vec2
		for _, ri := range tc.rooms {
			c := geom.OfficeCenter(tc.n, ri)
			ends = append(ends, c.Add(geom.V(-1.1, -0.6)), c.Add(geom.V(1.3, 0.7)))
		}
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
	}
}
