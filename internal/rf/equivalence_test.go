package rf

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/geom"
	"repro/internal/mat"
)

// The spatial index's contract is byte-identity: for any room and any
// endpoint pair, the indexed tracer must return exactly the path set the
// retained naive reference (naive.go) returns — same paths, same order,
// bit-identical floats. These tests enforce that on the paper rooms, on
// generated office floors, and on randomized rooms under MoveWall
// edits.

func equivRandRoom(rng *rand.Rand, walls int) *geom.Room {
	mats := []string{"brick", "drywall", "glass", "wood", "metal"}
	r := &geom.Room{}
	for i := 0; i < walls; i++ {
		a := geom.V(rng.Float64()*15, rng.Float64()*12)
		b := geom.V(rng.Float64()*15, rng.Float64()*12)
		switch rng.Intn(4) {
		case 0:
			b.Y = a.Y
		case 1:
			b.X = a.X
		}
		if a == b {
			b = a.Add(geom.V(0.3, 0.2))
		}
		m := mats[rng.Intn(len(mats))]
		if rng.Intn(5) == 0 {
			r.AddObstacle(a, b, m)
		} else {
			r.AddWall(a, b, m)
		}
	}
	return r
}

func pathsIdentical(a, b []Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		pa, pb := a[i], b[i]
		if pa.LossDB != pb.LossDB || pa.AoD != pb.AoD || pa.AoA != pb.AoA ||
			pa.Length != pb.Length || pa.Order != pb.Order ||
			len(pa.Points) != len(pb.Points) {
			return false
		}
		for k := range pa.Points {
			if pa.Points[k] != pb.Points[k] {
				return false
			}
		}
	}
	return true
}

func assertTraceIdentical(t *testing.T, indexed, naive *Tracer, tx, rx geom.Vec2, ctx string) {
	t.Helper()
	got, err1 := indexed.Trace(tx, rx)
	want, err2 := naive.Trace(tx, rx)
	if (err1 == nil) != (err2 == nil) {
		t.Fatalf("%s: indexed err=%v naive err=%v", ctx, err1, err2)
	}
	if !pathsIdentical(got, want) {
		t.Fatalf("%s: indexed %d paths != naive %d paths for %v→%v\nindexed: %v\nnaive: %v",
			ctx, len(got), len(want), tx, rx, got, want)
	}
}

// TestIndexedTracerMatchesNaivePaperRooms pins the index to the naive
// reference on the hand-built paper scenarios.
func TestIndexedTracerMatchesNaivePaperRooms(t *testing.T) {
	rooms := map[string]*geom.Room{
		"conference": geom.ConferenceRoom(),
		"box":        geom.Box(0, 0, 7, 5, "brick"),
		"office4":    geom.OfficeFloor(4),
		"office16":   geom.OfficeFloor(16),
	}
	rng := rand.New(rand.NewSource(3))
	for name, room := range rooms {
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		for q := 0; q < 25; q++ {
			tx := geom.V(rng.Float64()*8, rng.Float64()*6)
			rx := geom.V(rng.Float64()*8, rng.Float64()*6)
			assertTraceIdentical(t, indexed, naive, tx, rx, name)
		}
	}
}

// TestIndexedTracerMatchesNaiveRandomized is the core metamorphic
// relation: across randomized rooms — including degenerate collinear and
// axis-aligned wall clusters — the indexed path set is byte-identical to
// the naive one, before and after MoveWall edits.
func TestIndexedTracerMatchesNaiveRandomized(t *testing.T) {
	rng := rand.New(rand.NewSource(17))
	for round := 0; round < 30; round++ {
		room := equivRandRoom(rng, 3+rng.Intn(25))
		// Inject collinear axis-aligned pairs, whose SameSide cross
		// products are exactly zero.
		y := math.Floor(rng.Float64() * 10)
		room.AddWall(geom.V(1, y), geom.V(4, y), "wood")
		room.AddWall(geom.V(6, y), geom.V(9, y), "wood")
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		query := func(ctx string) {
			for q := 0; q < 8; q++ {
				tx := geom.V(rng.Float64()*16-1, rng.Float64()*13-1)
				rx := geom.V(rng.Float64()*16-1, rng.Float64()*13-1)
				assertTraceIdentical(t, indexed, naive, tx, rx, ctx)
			}
		}
		query("static")
		// Edits through MoveWall, re-queried each step so the indexed
		// tracer rebuilds its grid and block boxes every time.
		for step := 0; step < 6; step++ {
			wi := rng.Intn(len(room.Walls))
			a := geom.V(rng.Float64()*15, rng.Float64()*12)
			b := a.Add(geom.V(rng.Float64()*4+0.1, rng.Float64()*4+0.1))
			room.MoveWall(wi, geom.Seg(a, b))
			query("after MoveWall")
		}
		// Structural edit: forces full index rebuilds.
		room.AddWall(geom.V(rng.Float64()*15, 0), geom.V(rng.Float64()*15, 12), "glass")
		query("after AddWall")
	}
}

// TestIndexedTracerMatchesNaiveTightBudget compares indexed and naive
// traces at loss budgets that cut into the path sets, so the indexed
// tracer's FSPL and per-leg loss cutoffs fire: budget 0 (no cutoff),
// 90 and 110 dB (most reflections over budget), and the 140 dB
// default. Each room is queried static and after batches of MoveWall
// edits, with the default materials and with a registry of fractional
// losses (whose sums depend on the order they are added in) and
// lossless mirrors.
func TestIndexedTracerMatchesNaiveTightBudget(t *testing.T) {
	rooms := []struct {
		name  string
		build func() *geom.Room
	}{
		{"conference", geom.ConferenceRoom},
		{"box", func() *geom.Room { return geom.Box(0, 0, 7, 5, "brick") }},
		{"office16", func() *geom.Room { return geom.OfficeFloor(16) }},
	}
	fractional := mat.NewRegistry()
	for k, name := range mat.DefaultRegistry().Names() {
		m := mat.DefaultRegistry().MustLookup(name)
		m.PenetrationLossDB += float64(k+1) / 3
		if k%2 == 0 {
			// Lossless mirrors: a path's loss is then FSPL plus its
			// penetration sum, so kept paths come right up to the
			// budget the per-leg cutoff tests.
			m.ReflectLossDB, m.Roughness = 0, 0
		} else {
			m.ReflectLossDB += float64(k+1) / 7
		}
		fractional.Register(m)
	}
	for _, budget := range []float64{0, 90, 110, 140} {
		// cut counts paths whose bare FSPL+atmospheric loss is within the
		// budget but whose total is not: exactly the paths only the
		// penetration and reflection terms push over. near counts kept
		// paths within 2 dB of the budget.
		cut, near := 0, 0
		for ri, rc := range rooms {
			for _, reg := range []*mat.Registry{mat.DefaultRegistry(), fractional} {
				room := rc.build()
				indexed := NewTracer(room, 60e9)
				naive := NewTracer(room, 60e9)
				naive.Naive = true
				unlimited := NewTracer(room, 60e9)
				unlimited.MaxLossDB = 0
				indexed.MaxLossDB, naive.MaxLossDB = budget, budget
				indexed.Materials, naive.Materials, unlimited.Materials = reg, reg, reg
				rng := rand.New(rand.NewSource(int64(41 + ri)))
				lo, hi := room.Walls[0].A, room.Walls[0].A
				for _, w := range room.Walls {
					for _, p := range []geom.Vec2{w.A, w.B} {
						lo = geom.V(math.Min(lo.X, p.X), math.Min(lo.Y, p.Y))
						hi = geom.V(math.Max(hi.X, p.X), math.Max(hi.Y, p.Y))
					}
				}
				at := func() geom.Vec2 {
					return geom.V(lo.X+rng.Float64()*(hi.X-lo.X), lo.Y+rng.Float64()*(hi.Y-lo.Y))
				}
				query := func(ctx string) {
					for q := 0; q < 12; q++ {
						tx, rx := at(), at()
						assertTraceIdentical(t, indexed, naive, tx, rx,
							fmt.Sprintf("%s budget %v %s", rc.name, budget, ctx))
						all, err := unlimited.Trace(tx, rx)
						if err != nil {
							t.Fatal(err)
						}
						for _, p := range all {
							if budget > 0 && FSPLdB(p.Length, 60e9)+AtmosphericLossDB(p.Length, 60e9) <= budget &&
								p.LossDB > budget {
								cut++
							}
							if budget > 0 && p.LossDB <= budget && p.LossDB > budget-2 {
								near++
							}
						}
					}
				}
				query("static")
				for batch := 0; batch < 3; batch++ {
					for m := 0; m < 2; m++ {
						wi := rng.Intn(len(room.Walls))
						s := room.Walls[wi].Segment
						d := geom.V(rng.Float64()*0.6-0.3, rng.Float64()*0.6-0.3)
						room.MoveWall(wi, geom.Seg(s.A.Add(d), s.B.Add(d)))
					}
					query(fmt.Sprintf("after MoveWall batch %d", batch))
				}
			}
		}
		if budget > 0 && (cut == 0 || near == 0) {
			t.Errorf("budget %v: %d paths over budget only through wall losses, %d kept within 2 dB of it; the loss cutoffs went untested",
				budget, cut, near)
		}
	}
}

// TestBounceCullConservative holds bounceMisses to the exact test it
// stands in front of — Mirror, Intersect and 0 < u < 1 — on the argument
// shapes its callers pass: tx→rx off a wall (first order), a first image
// →rx off a second wall (the second-order walk) and images off short
// moved segments (the phantom loops). A culled triple the exact test
// accepts fails. Besides random geometry it draws the cases where
// rounding decides: points within 1e-9 of the wall line, bounces within
// 1e-12 of a wall end, collinear points, 1 mm walls and scenes offset by
// 1e3–1e4 m.
func TestBounceCullConservative(t *testing.T) {
	rng := rand.New(rand.NewSource(25))
	unit := func() geom.Vec2 {
		a := rng.Float64() * 2 * math.Pi
		return geom.V(math.Cos(a), math.Sin(a))
	}
	// Offsets, wall lengths and grazing heights are log-uniform, so the
	// extremes are drawn as often as the ordinary scales.
	logU := func(lo, hi float64) float64 { return lo * math.Pow(hi/lo, rng.Float64()) }
	signed := func(x float64) float64 {
		if rng.Intn(2) == 0 {
			return -x
		}
		return x
	}
	type tally struct{ checks, culled, accepted int }
	tallies := map[string]*tally{}
	check := func(kind string, w geom.Segment, p, q geom.Vec2) {
		img := w.Mirror(p)
		_, u, ok := geom.Seg(img, q).Intersect(w)
		exact := ok && u > 0 && u < 1
		tl := tallies[kind]
		if tl == nil {
			tl = &tally{}
			tallies[kind] = tl
		}
		tl.checks++
		if exact {
			tl.accepted++
		}
		if bounceMisses(&w, p, q) {
			tl.culled++
			if exact {
				t.Fatalf("%s: bounceMisses culls %v→%v off %v, which the exact test accepts at u=%g",
					kind, p, q, w, u)
			}
		}
	}
	for it := 0; it < 40000; it++ {
		off := geom.Vec2{}
		if it%2 == 1 {
			off = geom.V(signed(logU(1e3, 1e4)), signed(logU(1e3, 1e4)))
		}
		at := func() geom.Vec2 { return off.Add(geom.V(rng.Float64()*20-5, rng.Float64()*20-5)) }
		var length float64
		switch rng.Intn(3) {
		case 0:
			length = 1e-3
		case 1:
			length = 0.5 // an obstacle, the phantoms' usual size
		default:
			length = logU(1e-3, 12)
		}
		a := at()
		dir := unit()
		w := geom.Seg(a, a.Add(dir.Scale(length)))
		n := dir.Perp()
		onLine := func() geom.Vec2 { return w.Point(rng.Float64()*3 - 1) }

		tx, rx := at(), at()
		check("tx→rx", w, tx, rx)
		b := at()
		w1 := geom.Seg(b, b.Add(unit().Scale(logU(1e-3, 12))))
		img1 := w1.Mirror(tx)
		check("img1→rx", w, img1, rx)
		check("phantom image", w1, w.Mirror(tx), rx)

		// Grazing: one or both points within 1e-9 of the wall line, on
		// either side.
		graze := func() geom.Vec2 { return onLine().Add(n.Scale(signed(logU(1e-17, 1e-9)))) }
		check("grazing", w, graze(), rx)
		check("grazing", w, img1, graze())
		check("grazing", w, graze(), graze())

		// A bounce within 1e-12 m of a wall end: p and q on one side, the
		// ray from p reflecting at x towards q.
		end := float64(rng.Intn(2))
		x := w.Point(end + signed(logU(1e-16, 1e-12))/length)
		side := signed(1)
		in := unit()
		in.Y = side * math.Abs(in.Y)
		out := geom.V(-in.X, in.Y)
		rot := func(v geom.Vec2) geom.Vec2 { return dir.Scale(v.X).Add(n.Scale(v.Y)) }
		check("near end", w, x.Add(rot(in).Scale(logU(1e-3, 30))), x.Add(rot(out).Scale(logU(1e-3, 30))))

		// Collinear: both points on the wall line, or on one line through
		// a wall end.
		check("collinear", w, onLine(), onLine())
		check("collinear", w, onLine(), rx)
		ray := tx.Sub(w.A)
		check("collinear", w, tx, w.A.Add(ray.Scale(signed(rng.Float64()*3))))
	}
	for kind, tl := range tallies {
		t.Logf("%-14s %6d checks, %6d culled, %6d accepted by the exact test", kind, tl.checks, tl.culled, tl.accepted)
		if tl.accepted == 0 {
			t.Errorf("%s: the exact test accepted none of %d triples; the case is not exercised", kind, tl.checks)
		}
	}
	// Grazing and near-end triples sit inside the margins by design: the
	// cull must leave them to the exact test.
	for _, kind := range []string{"tx→rx", "img1→rx", "phantom image"} {
		if tl := tallies[kind]; tl.culled < tl.checks/4 {
			t.Errorf("%s: bounceMisses culled %d of %d triples, want at least a quarter", kind, tl.culled, tl.checks)
		}
	}
}

// TestPairAffectedMatchesNaive pins the indexed invalidation predicate to
// the brute-force enumeration across randomized rooms and move batches.
func TestPairAffectedMatchesNaive(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	for round := 0; round < 40; round++ {
		room := equivRandRoom(rng, 4+rng.Intn(20))
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		epoch := room.Epoch()
		nMoves := 1 + rng.Intn(3)
		for m := 0; m < nMoves; m++ {
			wi := rng.Intn(len(room.Walls))
			a := geom.V(rng.Float64()*15, rng.Float64()*12)
			room.MoveWall(wi, geom.Seg(a, a.Add(geom.V(1.5, 0.7))))
		}
		moves, complete := room.MovesSince(epoch)
		if !complete {
			t.Fatalf("round %d: move log incomplete", round)
		}
		for q := 0; q < 15; q++ {
			tx := geom.V(rng.Float64()*15, rng.Float64()*12)
			rx := geom.V(rng.Float64()*15, rng.Float64()*12)
			got := indexed.PairAffected(tx, rx, moves)
			want := naive.PairAffected(tx, rx, moves)
			if got != want {
				t.Fatalf("round %d: PairAffected indexed=%v naive=%v for %v→%v moves=%v",
					round, got, want, tx, rx, moves)
			}
		}
	}
}

// TestPairAffectedMatchesNaiveOfficeFloor pins the indexed predicate to
// the brute-force enumeration on multi-room office floors, where the
// block hierarchy culls most candidate pairs (the randomized rooms
// above are too small for it to cull much). A blocking obstacle walks
// along the middle room row; every third step also nudges a random
// wall, so the move batches carry phantom pairs of more than one wall.
func TestPairAffectedMatchesNaiveOfficeFloor(t *testing.T) {
	for _, n := range []int{16, 64} {
		room := geom.OfficeFloor(n)
		cols := int(math.Ceil(math.Sqrt(float64(n))))
		rows := (n + cols - 1) / cols
		y := geom.OfficeCenter(n, rows/2*cols).Y
		obstacle := func(x float64) geom.Segment { return geom.Seg(geom.V(x, y-0.25), geom.V(x, y+0.25)) }
		room.AddObstacle(obstacle(0.3).A, obstacle(0.3).B, "human")
		ob := len(room.Walls) - 1
		indexed := NewTracer(room, 60e9)
		naive := NewTracer(room, 60e9)
		naive.Naive = true
		rng := rand.New(rand.NewSource(int64(31 + n)))
		near := func() geom.Vec2 {
			return geom.OfficeCenter(n, rng.Intn(n)).Add(geom.V(rng.Float64()*3.2-1.6, rng.Float64()*2.2-1.1))
		}
		steps, queries := 12, 15
		if n == 64 {
			steps, queries = 8, 8
		}
		var hits, misses int
		for step := 1; step <= steps; step++ {
			epoch := room.Epoch()
			room.MoveWall(ob, obstacle(0.3+float64(step)*float64(cols)*4/float64(steps+1)))
			if step%3 == 0 {
				wi := rng.Intn(ob)
				s := room.Walls[wi].Segment
				d := geom.V(rng.Float64()*0.2-0.1, rng.Float64()*0.2-0.1)
				room.MoveWall(wi, geom.Seg(s.A.Add(d), s.B.Add(d)))
			}
			moves, complete := room.MovesSince(epoch)
			if !complete {
				t.Fatalf("r%d step %d: move log incomplete", n, step)
			}
			for q := 0; q < queries; q++ {
				tx, rx := near(), near()
				got := indexed.PairAffected(tx, rx, moves)
				want := naive.PairAffected(tx, rx, moves)
				if got != want {
					t.Fatalf("r%d step %d: PairAffected indexed=%v naive=%v for %v→%v moves=%v",
						n, step, got, want, tx, rx, moves)
				}
				if got {
					hits++
				} else {
					misses++
				}
			}
		}
		if hits == 0 || misses == 0 {
			t.Fatalf("r%d: %d affected and %d unaffected queries; both outcomes must occur", n, hits, misses)
		}
	}
}

// TestTraceAppendZeroAlloc enforces the hot-path allocation contract:
// once warm, TraceAppend reusing surrendered storage allocates nothing.
func TestTraceAppendZeroAlloc(t *testing.T) {
	room := geom.OfficeFloor(16)
	tr := NewTracer(room, 60e9)
	tx, rx := geom.OfficeCenter(16, 0), geom.OfficeCenter(16, 5)
	ps, err := tr.TraceAppend(nil, tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(ps) == 0 {
		t.Fatal("no paths traced; benchmark scenario is degenerate")
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 200 {
			ps, _ = tr.TraceAppend(ps[:0], tx, rx)
		}
	})
	if allocs != 0 {
		t.Fatalf("200 steady-state TraceAppend calls allocate %v times, want 0", allocs)
	}
	// A wall move keeps the steady state alloc-free too: the index
	// rebuild must not allocate once scratch has warmed up.
	orig := room.Walls[5].Segment
	moved := geom.Seg(orig.A.Add(geom.V(0.05, 0)), orig.B.Add(geom.V(0.05, 0)))
	room.MoveWall(5, moved)
	ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	room.MoveWall(5, orig)
	ps, _ = tr.TraceAppend(ps[:0], tx, rx)
	flip := false
	allocs = testing.AllocsPerRun(1, func() {
		for range 100 {
			if flip {
				room.MoveWall(5, moved)
			} else {
				room.MoveWall(5, orig)
			}
			flip = !flip
			ps, _ = tr.TraceAppend(ps[:0], tx, rx)
		}
	})
	if allocs != 0 {
		t.Fatalf("100 TraceAppend calls after MoveWall allocate %v times, want 0", allocs)
	}
}

// TestPairAffectedZeroAlloc: the invalidation predicate runs once per
// cached pair per room edit, so it must not allocate either — neither
// for a pair it reports affected nor for a far pair across the floor
// whose line of sight crosses the moved wall but dies on the unmoved
// walls, which runs the restricted walk and the static-loss checks to
// the end. Nor over an obstacle walk once one lap has grown the view
// storage: each step is a new batch, whose endpoint views are rebuilt
// in place.
func TestPairAffectedZeroAlloc(t *testing.T) {
	room := geom.OfficeFloor(16)
	tr := NewTracer(room, 60e9)
	epoch := room.Epoch()
	orig := room.Walls[7].Segment
	room.MoveWall(7, geom.Seg(orig.A.Add(geom.V(0.1, 0)), orig.B.Add(geom.V(0.1, 0))))
	moves, _ := room.MovesSince(epoch)
	for _, c := range []struct {
		name     string
		tx, rx   geom.Vec2
		affected bool
	}{
		{"near", geom.OfficeCenter(16, 1), geom.OfficeCenter(16, 9), true},
		{"far", geom.V(1.5, 4.6), geom.OfficeCenter(16, 15), false},
	} {
		if got := tr.PairAffected(c.tx, c.rx, moves); got != c.affected {
			t.Fatalf("%s pair: PairAffected = %v, want %v", c.name, got, c.affected)
		}
		if !c.affected && !losTouches(c.tx, c.rx, moves) {
			t.Fatalf("%s pair: line of sight misses the moved wall; the static-loss checks go untested", c.name)
		}
		allocs := testing.AllocsPerRun(1, func() {
			for range 100 {
				tr.PairAffected(c.tx, c.rx, moves)
			}
		})
		if allocs != 0 {
			t.Fatalf("%s pair: 100 PairAffected calls allocate %v times, want 0", c.name, allocs)
		}
	}

	walkRoom, ob, walk := officeWalk(16)
	warmMoveLog(walkRoom, ob, walk)
	wt := NewTracer(walkRoom, 60e9)
	ends := officeEnds(16, []int{0, 5, 10, 15, 3, 12})
	var moves2 []geom.WallMove
	// AllocsPerRun's warm-up run is the first lap.
	allocs := testing.AllocsPerRun(1, func() {
		for _, seg := range walk {
			epoch := walkRoom.Epoch()
			walkRoom.MoveWall(ob, seg)
			moves2, _ = walkRoom.AppendMovesSince(moves2[:0], epoch)
			for i, a := range ends {
				for j, b := range ends {
					if i != j {
						wt.PairAffected(a, b, moves2)
					}
				}
			}
		}
	})
	if allocs != 0 {
		t.Fatalf("a second lap of the %d-step office walk (%d endpoints) allocates %v times, want 0",
			len(walk), len(ends), allocs)
	}
}

// TestReleasePathsRecycles checks the freelist round-trip: storage given
// back via ReleasePaths is reused by the next trace without allocating.
func TestReleasePathsRecycles(t *testing.T) {
	room := geom.ConferenceRoom()
	tr := NewTracer(room, 60e9)
	tx, rx := geom.V(1, 1), geom.V(5, 3)
	ps, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	n := len(ps)
	tr.ReleasePaths(ps)
	for i := range ps {
		if ps[i].Points != nil {
			t.Fatalf("ReleasePaths left entry %d populated", i)
		}
	}
	allocs := testing.AllocsPerRun(1, func() {
		for range 50 {
			out, _ := tr.TraceAppend(ps[:0], tx, rx)
			if len(out) != n {
				t.Fatalf("retrace returned %d paths, want %d", len(out), n)
			}
			tr.ReleasePaths(out)
			ps = out
		}
	})
	// The path header slice is reused via ps[:0]; points come from the
	// freelist. Nothing should allocate.
	if allocs != 0 {
		t.Fatalf("Trace/Release cycle allocates %v per run, want 0", allocs)
	}
}

// TestMaterialEditPickedUp is the satellite regression test: registering
// (or redefining) a material after the tracer has already resolved its
// wall slab must be picked up on the next trace, via Registry.Rev.
func TestMaterialEditPickedUp(t *testing.T) {
	reg := mat.NewRegistry()
	reg.Register(mat.Material{Name: "glass", ReflectLossDB: 6, PenetrationLossDB: 8})
	room := geom.Box(0, 0, 10, 8, "glass")
	room.AddWall(geom.V(3, 0), geom.V(3, 8), "glass")
	tr := NewTracer(room, 60e9)
	tr.Materials = reg
	tx, rx := geom.V(1, 4), geom.V(9, 4)
	before, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	// Redefine glass as much lossier to penetrate; the LOS path crossing
	// the interior wall must get heavier.
	reg.Register(mat.Material{Name: "glass", ReflectLossDB: 6, PenetrationLossDB: 30})
	after, err := tr.Trace(tx, rx)
	if err != nil {
		t.Fatal(err)
	}
	if len(before) == 0 || len(after) == 0 {
		t.Fatal("expected paths before and after material edit")
	}
	if !(after[0].LossDB > before[0].LossDB+20) {
		t.Fatalf("material redefinition not picked up: LOS loss %.2f dB before, %.2f dB after",
			before[0].LossDB, after[0].LossDB)
	}
	// And a registration fixing a previously unknown material must flip
	// the tracer from error to success.
	room2 := geom.Box(0, 0, 5, 5, "mystery")
	tr2 := NewTracer(room2, 60e9)
	tr2.Materials = reg
	if _, err := tr2.Trace(geom.V(1, 1), geom.V(4, 4)); err == nil {
		t.Fatal("expected unknown-material error")
	}
	reg.Register(mat.Material{Name: "mystery", ReflectLossDB: 5, PenetrationLossDB: 10})
	if _, err := tr2.Trace(geom.V(1, 1), geom.V(4, 4)); err != nil {
		t.Fatalf("material registered after failure still errors: %v", err)
	}
}

// TestGeometryErrorShape checks the typed error the campaign layer
// classifies: it must wrap the underlying mat error and carry endpoints.
func TestGeometryErrorShape(t *testing.T) {
	room := geom.Box(0, 0, 5, 5, "unobtainium")
	tr := NewTracer(room, 60e9)
	_, err := tr.Trace(geom.V(1, 1), geom.V(2, 2))
	if err == nil {
		t.Fatal("expected error")
	}
	ge, ok := err.(*GeometryError)
	if !ok {
		t.Fatalf("error type %T, want *GeometryError", err)
	}
	if ge.Unwrap() == nil {
		t.Fatal("GeometryError must wrap the cause")
	}
	if ge.Tx != geom.V(1, 1) || ge.Rx != geom.V(2, 2) {
		t.Fatalf("GeometryError endpoints %v→%v", ge.Tx, ge.Rx)
	}
	// The naive reference must fail identically.
	tr.Naive = true
	_, nerr := tr.Trace(geom.V(1, 1), geom.V(2, 2))
	if nerr == nil || nerr.Error() != err.Error() {
		t.Fatalf("naive error %v != indexed error %v", nerr, err)
	}
}

// TestInvalidMaterialIsGeometryError: a material with a negative loss
// fails the trace the way an unknown name does — a *GeometryError that
// wraps the mat error and carries the endpoints — on both tracers.
func TestInvalidMaterialIsGeometryError(t *testing.T) {
	reg := mat.DefaultRegistry()
	reg.Register(mat.Material{Name: "gain-film", ReflectLossDB: 3, PenetrationLossDB: -20})
	room := geom.Box(0, 0, 6, 4, "brick")
	room.AddWall(geom.V(3, 0), geom.V(3, 4), "gain-film")
	for _, naive := range []bool{false, true} {
		tr := NewTracer(room, 60e9)
		tr.Materials = reg
		tr.Naive = naive
		_, err := tr.Trace(geom.V(1, 1), geom.V(5, 3))
		var ge *GeometryError
		if !errors.As(err, &ge) {
			t.Fatalf("naive=%v: error %v (%T), want *GeometryError", naive, err, err)
		}
		if ge.Tx != geom.V(1, 1) || ge.Rx != geom.V(5, 3) ||
			!strings.Contains(ge.Err.Error(), `mat: invalid material "gain-film"`) {
			t.Fatalf("naive=%v: GeometryError %v", naive, ge)
		}
	}
}
