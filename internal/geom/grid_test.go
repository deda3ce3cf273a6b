package geom

import (
	"math/rand"
	"testing"
)

func randSeg(rng *rand.Rand, scale float64) Segment {
	// Mix of axis-aligned and free-angle segments, as real rooms have.
	a := V(rng.Float64()*scale, rng.Float64()*scale)
	b := V(rng.Float64()*scale, rng.Float64()*scale)
	switch rng.Intn(4) {
	case 0:
		b.Y = a.Y // horizontal
	case 1:
		b.X = a.X // vertical
	}
	if a == b {
		b = a.Add(V(0.1, 0.1))
	}
	return Seg(a, b)
}

func randRoom(rng *rand.Rand, walls int) *Room {
	r := &Room{}
	for i := 0; i < walls; i++ {
		s := randSeg(rng, 20)
		if rng.Intn(4) == 0 {
			r.AddObstacle(s.A, s.B, "metal")
		} else {
			r.AddWall(s.A, s.B, "drywall")
		}
	}
	return r
}

// TestGridCandidatesAreSuperset checks the index's core contract: every
// wall a query segment actually intersects appears among the candidates.
func TestGridCandidatesAreSuperset(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for round := 0; round < 50; round++ {
		room := randRoom(rng, 1+rng.Intn(40))
		var g Grid
		g.Sync(room)
		for q := 0; q < 20; q++ {
			qs := randSeg(rng, 25)
			// Some queries extend beyond the wall bounds on purpose.
			cand := map[int32]bool{}
			for _, wi := range g.AppendSegmentWalls(nil, qs.A, qs.B) {
				if cand[wi] {
					t.Fatalf("round %d: duplicate candidate %d", round, wi)
				}
				cand[wi] = true
			}
			for i, w := range room.Walls {
				if _, _, ok := qs.Intersect(w.Segment); ok && !cand[int32(i)] {
					t.Fatalf("round %d query %v: wall %d (%v) intersects but is not a candidate",
						round, qs, i, w.Segment)
				}
			}
		}
	}
}

// TestGridSyncAfterMovesStaysExact moves walls through MoveWall —
// including 100 m away, far outside the bounds the grid was first built
// with, so each re-Sync must re-fit the bounds to every wall — and checks
// that the synced grid still honors the superset contract and never
// returns duplicates.
func TestGridSyncAfterMovesStaysExact(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	for round := 0; round < 40; round++ {
		room := randRoom(rng, 2+rng.Intn(30))
		var g Grid
		g.Sync(room)
		for step := 0; step < 10; step++ {
			wi := rng.Intn(len(room.Walls))
			s := randSeg(rng, 20)
			if rng.Intn(3) == 0 {
				// Escape the first build's bounds: exercises the re-fit.
				s = Seg(s.A.Add(V(100, 100)), s.B.Add(V(100, 100)))
			}
			room.MoveWall(wi, s)
			g.Sync(room)
			for q := 0; q < 5; q++ {
				qs := randSeg(rng, 30)
				if rng.Intn(3) == 0 {
					// Query through the displaced region too.
					qs = Seg(qs.A, qs.B.Add(V(90, 90)))
				}
				cand := map[int32]bool{}
				for _, c := range g.AppendSegmentWalls(nil, qs.A, qs.B) {
					if cand[c] {
						t.Fatalf("round %d step %d: duplicate candidate %d", round, step, c)
					}
					cand[c] = true
				}
				for i, w := range room.Walls {
					if _, _, ok := qs.Intersect(w.Segment); ok && !cand[int32(i)] {
						t.Fatalf("round %d step %d: wall %d (%v) intersects %v but missing after Sync",
							round, step, i, w.Segment, qs)
					}
				}
			}
		}
	}
}

// TestGridStructuralEditRebuilds checks that an unlogged edit (AddWall)
// is picked up by Sync through the epoch/wall-count mismatch.
func TestGridStructuralEditRebuilds(t *testing.T) {
	room := Box(0, 0, 10, 10, "brick")
	var g Grid
	g.Sync(room)
	room.AddWall(V(2, 2), V(8, 8), "glass")
	g.Sync(room)
	found := false
	for _, wi := range g.AppendSegmentWalls(nil, V(5, 2), V(5, 8)) {
		if wi == 4 {
			found = true
		}
	}
	if !found {
		t.Fatalf("added wall not indexed after Sync")
	}
}

// TestGridQueryAllocFree checks the steady-state query path allocates
// nothing once scratch has warmed up.
func TestGridQueryAllocFree(t *testing.T) {
	room := OfficeFloor(16)
	var g Grid
	g.Sync(room)
	dst := g.AppendSegmentWalls(nil, OfficeCenter(16, 0), OfficeCenter(16, 15))
	allocs := testing.AllocsPerRun(1, func() {
		for range 100 {
			dst = g.AppendSegmentWalls(dst[:0], OfficeCenter(16, 0), OfficeCenter(16, 15))
		}
	})
	if allocs != 0 {
		t.Fatalf("100 AppendSegmentWalls queries allocate %v times, want 0", allocs)
	}
}

func TestOfficeFloor(t *testing.T) {
	prev := 0
	for _, n := range []int{1, 4, 16, 64} {
		r1, r2 := OfficeFloor(n), OfficeFloor(n)
		if len(r1.Walls) != len(r2.Walls) {
			t.Fatalf("OfficeFloor(%d) not deterministic", n)
		}
		for i := range r1.Walls {
			if r1.Walls[i] != r2.Walls[i] {
				t.Fatalf("OfficeFloor(%d) wall %d differs between builds", n, i)
			}
		}
		if len(r1.Walls) <= prev {
			t.Fatalf("OfficeFloor(%d) has %d walls, not more than OfficeFloor at previous size (%d)",
				n, len(r1.Walls), prev)
		}
		prev = len(r1.Walls)
		for i := 0; i < n; i++ {
			c := OfficeCenter(n, i)
			cols, rows := officeGrid(n)
			if c.X < 0 || c.X > float64(cols)*officeRoomW || c.Y < 0 || c.Y > float64(rows)*officeRoomH {
				t.Fatalf("OfficeCenter(%d,%d)=%v outside the floor", n, i, c)
			}
		}
	}
	if got := len(OfficeFloor(64).Walls); got < 200 {
		t.Fatalf("OfficeFloor(64) has only %d walls; the scaling benchmark needs hundreds", got)
	}
}

// TestAppendMovesSinceMatchesMovesSince pins the scratch-reusing variant
// to the allocating one.
func TestAppendMovesSinceMatchesMovesSince(t *testing.T) {
	room := Box(0, 0, 10, 10, "brick")
	e0 := room.Epoch()
	for i := 0; i < 5; i++ {
		room.MoveWall(i%4, Seg(V(float64(i), 0), V(float64(i)+1, 1)))
	}
	want, wc := room.MovesSince(e0)
	scratch := make([]WallMove, 0, 8)
	got, gc := room.AppendMovesSince(scratch, e0)
	if wc != gc || len(want) != len(got) {
		t.Fatalf("AppendMovesSince (%d,%v) vs MovesSince (%d,%v)", len(got), gc, len(want), wc)
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("move %d: %+v vs %+v", i, got[i], want[i])
		}
	}
}
