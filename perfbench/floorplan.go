package main

import (
	"fmt"
	"math"
	"time"

	"repro/internal/coexist"
	"repro/internal/geom"
	"repro/internal/rf"
)

// floorPlan plans seeded links on office floors of 1, 16 and 64 rooms:
// coexist.Analyze, then ConflictGraph and AssignChannels. It then walks
// an obstacle across each floor with Room.MoveWall and, after every
// step, keeps the channel of every endpoint pair current with one
// long-lived rf.Tracer: PairAffected picks the pairs to re-trace and
// TraceAppend re-traces them. Each re-trace is checked against the
// Tracer.Naive reference. The 1-room floor sits below any wall count
// at which the tracer's spatial index pays off and the 64-room floor
// above it.
type floorPlan struct {
	*env
	floors []*floor
	trace  uint64 // request id: one per analysis and per walk step
}

// floor is one office floor and the state its walk maintains.
type floor struct {
	rooms     int
	room      *geom.Room
	links     []coexist.Link
	pairs     [][2]geom.Vec2    // every ordered pair of distinct link endpoints
	tracer    *rf.Tracer        // long-lived, indexed
	reference *rf.Tracer        // brute-force (Naive) tracer on the same room
	initial   [][]rf.Path       // path sets with the obstacle at its start
	paths     [][]rf.Path       // path sets the walk maintains
	expected  [][]expectedTrace // per walk step, from the reference walk
	obstacle  int               // wall index of the walking obstacle
	walk      []geom.Segment    // obstacle positions; the last is the start

	// Recorder layers of this floor's calls.
	analyze, assign, moveWall, pairAffected, trace, step int
	// The Naive tracer's time on the reference walk's queries.
	naiveTime  time.Duration
	naiveCalls int
	// Last pass's raw counts for the ratio metrics.
	paTrue, paCalls, traces, empty int64
	// The first trace's time in ms: it builds the tracer's index.
	indexBuild float64
}

// floorRooms places one link in each listed room of a floor size. The
// rooms are fixed and spread over the floor, so every seed plans the
// same amount of work; the seed moves the endpoints within their rooms
// and sets their powers.
var floorRooms = map[int][]int{
	1:  {0, 0, 0, 0, 0, 0},
	16: {0, 5, 10, 15, 3, 12},
	64: {9, 36, 54},
}

// walkSteps is the number of obstacle moves in each direction.
const walkSteps = 8

func (w *floorPlan) setup() error {
	for i, n := range floorSizes {
		rooms := floorRooms[n]
		if w.cfg.tiny {
			if n > 16 {
				continue
			}
			rooms = rooms[:2]
		}
		f, err := newFloor(w.env, n, rooms, uint64(10+i))
		if err != nil {
			return err
		}
		w.floors = append(w.floors, f)
	}
	return nil
}

// newFloor builds an n-room floor with a seeded link in each of the
// given rooms and a walking obstacle, and traces every endpoint pair
// once.
func newFloor(e *env, n int, rooms []int, stream uint64) (*floor, error) {
	rng := e.rng(stream)
	room := geom.OfficeFloor(n)
	layer := func(name string) int { return e.rec.layer(floorName(name, n)) }
	f := &floor{
		rooms: n, room: room,
		analyze:      layer("coexist.analyze"),
		assign:       layer("coexist.assign"),
		moveWall:     layer("geom.move_wall"),
		pairAffected: layer("rf.pair_affected"),
		trace:        layer("rf.trace"),
		step:         layer("floor.walk_step"),
	}
	for k, ri := range rooms {
		c := geom.OfficeCenter(n, ri)
		at := func() geom.Vec2 { return c.Add(geom.V(rng.Float64()*3.2-1.6, rng.Float64()*2.2-1.1)) }
		a := at()
		b := at()
		for a.Dist(b) < 1 {
			b = at()
		}
		boresight := b.Sub(a).Angle() * 180 / math.Pi
		f.links = append(f.links, coexist.Link{
			Name: fmt.Sprintf("r%d-l%d", n, k),
			A:    coexist.Endpoint{Pos: a, BoresightDeg: boresight, TxPowerDBm: rng.Float64() * 10},
			B:    coexist.Endpoint{Pos: b, BoresightDeg: boresight + 180, TxPowerDBm: rng.Float64() * 10},
		})
	}
	var ends []geom.Vec2
	for _, l := range f.links {
		ends = append(ends, l.A.Pos, l.B.Pos)
	}
	for i := range ends {
		for j := range ends {
			if i != j {
				f.pairs = append(f.pairs, [2]geom.Vec2{ends[i], ends[j]})
			}
		}
	}
	// The obstacle walks along the centre line of the middle room row,
	// through the door gaps, and back to where it started.
	cols := int(math.Ceil(math.Sqrt(float64(n))))
	rows := (n + cols - 1) / cols
	width := float64(cols) * 4
	y := geom.OfficeCenter(n, rows/2*cols).Y
	at := func(x float64) geom.Segment { return geom.Segment{A: geom.V(x, y-0.25), B: geom.V(x, y+0.25)} }
	x0, x1 := 0.3, width-0.3
	start := at(x0)
	for s := 1; s <= walkSteps; s++ {
		f.walk = append(f.walk, at(x0+(x1-x0)*float64(s)/walkSteps))
	}
	for s := walkSteps - 1; s >= 0; s-- {
		f.walk = append(f.walk, at(x0+(x1-x0)*float64(s)/walkSteps))
	}
	room.AddObstacle(start.A, start.B, "human")
	f.obstacle = len(room.Walls) - 1

	f.tracer = rf.NewTracer(room, rf.FreqChannel2Hz)
	f.reference = rf.NewTracer(room, rf.FreqChannel2Hz)
	f.reference.Naive = true
	f.paths = make([][]rf.Path, len(f.pairs))
	f.initial = make([][]rf.Path, len(f.pairs))
	t0 := time.Now()
	for i, p := range f.pairs {
		ps, err := f.tracer.TraceAppend(nil, p[0], p[1])
		if err != nil {
			return nil, err
		}
		if i == 0 {
			f.indexBuild = float64(time.Since(t0)) / float64(time.Millisecond)
		}
		f.paths[i] = ps
		f.initial[i] = clonePaths(ps)
	}
	return f, nil
}

func clonePaths(ps []rf.Path) []rf.Path {
	out := make([]rf.Path, len(ps))
	for i, p := range ps {
		out[i] = p
		out[i].Points = append([]geom.Vec2(nil), p.Points...)
	}
	return out
}

func samePaths(a, b []rf.Path) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		p, q := a[i], b[i]
		if p.LossDB != q.LossDB || p.AoD != q.AoD || p.AoA != q.AoA || p.Length != q.Length ||
			p.Order != q.Order || len(p.Points) != len(q.Points) {
			return false
		}
		for k := range p.Points {
			if p.Points[k] != q.Points[k] {
				return false
			}
		}
	}
	return true
}

func (w *floorPlan) prepare() error { return nil }

func (w *floorPlan) pass(t *tally) {
	for _, f := range w.floors {
		w.plan(f, t)
		w.walk(f, t, false)
	}
}

// plan predicts every ordered link pair's coupling and assigns channels.
// ops_per_s counts the couplings over the time planning took.
func (w *floorPlan) plan(f *floor, t *tally) {
	w.trace++
	t.attempt(1)
	t0 := time.Now()
	s := w.rec.begin()
	cs, err := coexist.NewAnalyzer(f.room).Analyze(f.links)
	w.rec.end(f.analyze, s, w.trace, 0)
	if err != nil {
		t.fail("r%d analyze: %v", f.rooms, err)
		return
	}
	n := len(f.links)
	if len(cs) != n*(n-1) {
		t.fail("r%d analyze: %d couplings, want %d", f.rooms, len(cs), n*(n-1))
		return
	}
	s = w.rec.begin()
	coexist.ConflictGraph(n, cs, coexist.Colliding)
	assign, _ := coexist.AssignChannels(n, cs, 2)
	w.rec.end(f.assign, s, w.trace, 0)
	t.opTime(time.Since(t0))
	for i, ch := range assign {
		if ch < 0 || ch > 1 {
			t.fail("r%d assign: link %d on channel %d", f.rooms, i, ch)
			return
		}
	}
	t.op(len(cs), -1)
}

// walk moves the obstacle along its loop, keeping every pair's paths
// current. The reference walk (check) also traces every re-traced pair
// with the Naive tracer, requires the same path set, and records it; a
// timed walk requires each re-trace to equal the recorded set.
func (w *floorPlan) walk(f *floor, t *tally, reference bool) {
	var paCalls, paTrue, traces, nPaths, empty int64
	if reference {
		f.expected = make([][]expectedTrace, len(f.walk))
	}
	for si, seg := range f.walk {
		w.trace++
		t0 := time.Now()
		step := w.rec.begin()
		epoch := f.room.Epoch()
		s := w.rec.begin()
		f.room.MoveWall(f.obstacle, seg)
		w.rec.end(f.moveWall, s, w.trace, step.id)
		moves, complete := f.room.MovesSince(epoch)
		if !complete {
			t.fail("r%d: move log incomplete", f.rooms)
			return
		}
		var retraced []int
		for i, p := range f.pairs {
			s := w.rec.begin()
			hit := f.tracer.PairAffected(p[0], p[1], moves)
			w.rec.end(f.pairAffected, s, w.trace, step.id)
			paCalls++
			if !hit {
				continue
			}
			paTrue++
			t.attempt(1)
			s = w.rec.begin()
			ps, err := f.tracer.TraceAppend(f.paths[i][:0], p[0], p[1])
			w.rec.end(f.trace, s, w.trace, step.id)
			if err != nil {
				t.fail("r%d trace: %v", f.rooms, err)
				continue
			}
			f.paths[i] = ps
			traces++
			nPaths += int64(len(ps))
			if len(ps) == 0 {
				empty++
			}
			retraced = append(retraced, i)
		}
		lat := time.Since(t0).Seconds()
		w.rec.end(f.step, step, w.trace, 0)
		if reference {
			w.recordReference(f, t, si, retraced)
			continue
		}
		t.op(0, lat)
		want := f.expected[si]
		if len(want) != len(retraced) {
			t.fail("r%d step %d: re-traced %d pairs, the reference walk %d", f.rooms, si, len(retraced), len(want))
			continue
		}
		for k, i := range retraced {
			if want[k].pair != i || !samePaths(f.paths[i], want[k].paths) {
				t.fail("r%d step %d pair %d: path set differs from the naive reference", f.rooms, si, i)
			}
		}
	}
	// The walk is a closed loop, so every pair must be back where it began.
	for i := range f.pairs {
		if !samePaths(f.paths[i], f.initial[i]) {
			t.fail("r%d pair %d: path set after the walk differs from before it", f.rooms, i)
		}
	}
	if reference {
		return
	}
	r := f.rooms
	t.count(floorName("geom.move_wall.calls", r), int64(len(f.walk)))
	t.count(floorName("rf.pair_affected.calls", r), paCalls)
	t.count(floorName("rf.trace.calls", r), traces)
	t.count(floorName("rf.trace.paths", r), nPaths)
	f.paCalls, f.paTrue, f.traces, f.empty = paCalls, paTrue, traces, empty
}

// expectedTrace is one re-trace of the reference walk.
type expectedTrace struct {
	pair  int
	paths []rf.Path
}

// recordReference traces a step's re-traced pairs with the Naive tracer,
// checks the indexed result against it, and records it for the timed
// walks. The naive tracer is timed here, on the same queries.
func (w *floorPlan) recordReference(f *floor, t *tally, step int, retraced []int) {
	for _, i := range retraced {
		p := f.pairs[i]
		t.attempt(1)
		t0 := time.Now()
		ref, err := f.reference.TraceAppend(nil, p[0], p[1])
		f.naiveTime += time.Since(t0)
		f.naiveCalls++
		if err != nil || !samePaths(f.paths[i], ref) {
			t.fail("r%d step %d pair %d: indexed path set differs from the naive reference (err %v)", f.rooms, step, i, err)
		}
		f.expected[step] = append(f.expected[step], expectedTrace{pair: i, paths: ref})
	}
}

func (w *floorPlan) check(t *tally) {
	for _, f := range w.floors {
		w.walk(f, t, true)
	}
}

func (w *floorPlan) layers(m map[string]float64) {
	for _, f := range w.floors {
		r := f.rooms
		m[floorName("coexist.analyze.ms", r)] = w.rec.mean(f.analyze, time.Millisecond)
		m[floorName("coexist.assign.ms", r)] = w.rec.mean(f.assign, time.Millisecond)
		m[floorName("geom.move_wall.us", r)] = w.rec.mean(f.moveWall, time.Microsecond)
		m[floorName("rf.pair_affected.us", r)] = w.rec.mean(f.pairAffected, time.Microsecond)
		m[floorName("rf.trace.us", r)] = w.rec.mean(f.trace, time.Microsecond)
		if f.naiveCalls > 0 {
			m[floorName("rf.trace_naive.us", r)] = float64(f.naiveTime) / float64(time.Microsecond) / float64(f.naiveCalls)
		}
		m[floorName("rf.index_build.ms", r)] = f.indexBuild
		if f.paCalls > 0 {
			m[floorName("rf.pair_affected.true_frac", r)] = float64(f.paTrue) / float64(f.paCalls)
		}
		if f.traces > 0 {
			m[floorName("rf.trace.empty_frac", r)] = float64(f.empty) / float64(f.traces)
		}
	}
}

func (w *floorPlan) close() {}
