package rf

import (
	"fmt"
	"math"

	"repro/internal/geom"
	"repro/internal/mat"
)

// Tracer computes the multipath channel between two points in a room
// using the image method: a k-th order reflection is found by mirroring
// the transmitter across k walls and intersecting the straight line from
// the final image to the receiver with the mirror walls in reverse order.
//
// Queries run through an exact spatial index: leg blockage tests walk a
// uniform grid (geom.Grid) instead of scanning every wall, and the
// second-order walk culls whole index ranges of walls (blocks) by their
// bounding boxes before the per-pair culls. Both structures are rebuilt
// whenever the room's epoch or wall count changes. The index only ever
// skips work the brute-force scan provably discards, so the returned
// path sets are byte-identical to the retained naive reference
// (naive.go, selected via Naive) — the acceleration is observable only
// as time.
type Tracer struct {
	// Room supplies the reflecting walls and blocking obstacles.
	Room *geom.Room
	// Materials resolves wall material names.
	Materials *mat.Registry
	// MaxOrder bounds the reflection order: 0 traces only line of sight,
	// 1 adds single bounces, 2 adds double bounces. The paper observes
	// second-order reflections with measurable energy (location B in
	// Fig. 18), so scenarios default to 2.
	MaxOrder int
	// FreqHz is the carrier frequency.
	FreqHz float64
	// MaxLossDB drops paths weaker than this total propagation loss to
	// keep channel lists short; 0 means keep everything.
	MaxLossDB float64
	// Naive routes every query through the retained brute-force
	// reference implementation (naive.go). The equivalence and
	// metamorphic suites use it as the oracle the spatial index must
	// match byte for byte; production callers leave it false.
	Naive bool

	// wallMats is the dense wall→material slab, resolved in one batch via
	// mat.ResolveInto and re-synced when the wall list or the registry
	// changes. The per-leg and per-bounce loops index it instead of
	// hashing material names, which removes the map lookups from the
	// tracing hot path.
	wallMats     []mat.Material
	wallMatNames []string
	matEpoch     uint64
	matRev       uint64
	matReg       *mat.Registry
	matsValid    bool

	// grid is the uniform spatial index the leg-blockage walk queries.
	grid geom.Grid

	// blocks partitions the wall array into index ranges of wallsPerBlock
	// and stores each range's bounding box. Generated floors emit walls
	// room by room, so index ranges are spatially tight, and the
	// second-order walk skips a whole block when its box lies confidently
	// outside a first mirror's cone or opposite tx across its line. The
	// boxes are recomputed whenever blocksEpoch or blocksWalls goes stale.
	blocks      []wallBlock
	blocksEpoch uint64
	blocksWalls int

	// Per-query scratch, sized to the wall count by syncGeometry.
	// txCross/rxCross hold the SameSide cross products of the endpoints
	// against every wall line, computed once per query with exactly the
	// expressions geom.Segment.SameSide uses.
	txCross, rxCross []float64
	// skipGen/skipCur replace the per-candidate skip maps: a wall is
	// "skipped" for the current leg set iff its stamp equals skipCur.
	skipGen []uint64
	skipCur uint64
	// legIdx collects grid candidates per leg; legHit collects the few
	// walls a leg actually crosses (sorted before the loss sum).
	legIdx []int32
	legHit []int32
	// ptsScratch stages a path's points before the loss cutoff decides
	// whether they are materialized; ptsFree pools released point slabs.
	ptsScratch [maxTracePoints]geom.Vec2
	ptsFree    [][]geom.Vec2

	// PairAffected scratch for the current move batch: the moved
	// segments (old and new), the phantoms (old), the moved walls as
	// stamps and as a list, and the endpoints' views (views.go); while a
	// view is built, the shadows of the moved segments seen from its
	// endpoint and one row's or column's reach wedges. paRows holds the
	// rows one call's walk has set up, valid where paRowGen equals
	// paRowCur.
	paSegs     []geom.Segment
	paPhantoms []geom.Segment
	paMoved    []uint64
	paMovedCur uint64
	paMovedIdx []int32
	paShadows  []wedge
	paReach    []wedge
	paRows     []mirrorRow
	paRowGen   []uint64
	paRowCur   uint64
	views      pairViews
}

// maxTracePoints is the longest point sequence a traced path can carry:
// tx, two bounces, rx (the tracer implements orders ≤ 2).
const maxTracePoints = 4

// wallBlock is the bounding box of one wallsPerBlock-sized index range
// of the wall array, stored as center and half-extents — the granule of
// the block-level culls. For any edge vector e, the extremes of
// cross(e, p−anchor) over the box are cross(e, c−anchor) ±
// (|e.x|·ry + |e.y|·rx), so one cross product decides a whole block.
type wallBlock struct {
	cx, cy, rx, ry float64
}

// wallsPerBlock is the block granularity. Smaller blocks cull more
// precisely but cost more box tests per first mirror; a room's worth of
// walls keeps the boxes spatially tight on the generated office floors.
const wallsPerBlock = 4

// sideMargin is the relative margin of the block and per-pair culls.
// Cross products within margin·|d|·|reach| of zero are never culled, so
// floating-point wobble in an interpolated reflection point can never
// disagree with a "confident" side — the culls only discard pairs the
// naive SameSide and Intersect checks provably reject.
const sideMargin = 1e-9

// GeometryError reports that the tracer could not evaluate the channel
// between two points — in practice an unresolvable wall material name
// surfacing deep inside a sweep loop. The campaign runner classifies it
// as a structured "geometry" failure (see experiments.RunCampaign).
type GeometryError struct {
	Tx, Rx geom.Vec2
	Err    error
}

func (e *GeometryError) Error() string {
	return fmt.Sprintf("rf: trace %v→%v: %v", e.Tx, e.Rx, e.Err)
}

func (e *GeometryError) Unwrap() error { return e.Err }

// syncMaterials refreshes the wall→material slab when the wall list or
// the registry changed. Wall moves bump the room epoch without touching
// material names, so an epoch-only change re-validates with one name
// compare per wall instead of re-resolving; a registry edit after
// construction (Registry.Rev) still forces the full re-resolve.
func (t *Tracer) syncMaterials() error {
	if t.matsValid && t.matReg == t.Materials && t.matRev == t.Materials.Rev() &&
		len(t.wallMats) == len(t.Room.Walls) {
		if t.matEpoch == t.Room.Epoch() {
			return nil
		}
		if t.wallNamesUnchanged() {
			t.matEpoch = t.Room.Epoch()
			return nil
		}
	}
	t.wallMatNames = t.wallMatNames[:0]
	for _, w := range t.Room.Walls {
		t.wallMatNames = append(t.wallMatNames, w.Material)
	}
	mats, err := t.Materials.ResolveInto(t.wallMats[:0], t.wallMatNames)
	if err != nil {
		t.matsValid = false
		return err
	}
	t.wallMats = mats
	t.matEpoch = t.Room.Epoch()
	t.matRev = t.Materials.Rev()
	t.matReg = t.Materials
	t.matsValid = true
	return nil
}

func (t *Tracer) wallNamesUnchanged() bool {
	if len(t.wallMatNames) != len(t.Room.Walls) {
		return false
	}
	for i := range t.Room.Walls {
		if t.Room.Walls[i].Material != t.wallMatNames[i] {
			return false
		}
	}
	return true
}

// NewTracer returns a tracer for the room with the default material set,
// second-order reflections, and a 140 dB loss cutoff.
func NewTracer(room *geom.Room, freqHz float64) *Tracer {
	return &Tracer{
		Room:      room,
		Materials: mat.DefaultRegistry(),
		MaxOrder:  2,
		FreqHz:    freqHz,
		MaxLossDB: 140,
	}
}

// blockEps is the parametric margin used to avoid self-occlusion at
// reflection points.
const blockEps = 1e-9

// syncGeometry reconciles the spatial index (grid, block boxes, and the
// per-wall scratch slices) with the room. Static rooms pay integer
// compares; any change rebuilds the grid and the block boxes.
func (t *Tracer) syncGeometry() {
	t.grid.Sync(t.Room)
	t.syncBlocks()
	if n := len(t.Room.Walls); len(t.skipGen) != n {
		t.skipGen = growUint64(t.skipGen, n)
		t.paMoved = growUint64(t.paMoved, n)
		t.txCross = growFloat64(t.txCross, n)
		t.rxCross = growFloat64(t.rxCross, n)
	}
}

func growUint64(s []uint64, n int) []uint64 {
	if cap(s) < n {
		return make([]uint64, n)
	}
	return s[:n]
}

func growFloat64(s []float64, n int) []float64 {
	if cap(s) < n {
		return make([]float64, n)
	}
	return s[:n]
}

// syncBlocks recomputes every block's bounding box when the room's epoch
// or wall count changed since the last sync.
func (t *Tracer) syncBlocks() {
	n := len(t.Room.Walls)
	if t.blocksEpoch == t.Room.Epoch() && t.blocksWalls == n {
		return
	}
	nb := (n + wallsPerBlock - 1) / wallsPerBlock
	if cap(t.blocks) < nb {
		t.blocks = make([]wallBlock, nb)
	} else {
		t.blocks = t.blocks[:nb]
	}
	for b := range t.blocks {
		t.blockBox(b)
	}
	t.blocksEpoch = t.Room.Epoch()
	t.blocksWalls = n
}

// blockBox recomputes the bounding box of block b from its member walls.
func (t *Tracer) blockBox(b int) {
	walls := t.Room.Walls
	lo := b * wallsPerBlock
	hi := min(lo+wallsPerBlock, len(walls))
	minX, minY := math.Inf(1), math.Inf(1)
	maxX, maxY := math.Inf(-1), math.Inf(-1)
	for k := lo; k < hi; k++ {
		s := &walls[k].Segment
		minX = math.Min(minX, math.Min(s.A.X, s.B.X))
		minY = math.Min(minY, math.Min(s.A.Y, s.B.Y))
		maxX = math.Max(maxX, math.Max(s.A.X, s.B.X))
		maxY = math.Max(maxY, math.Max(s.A.Y, s.B.Y))
	}
	t.blocks[b] = wallBlock{
		cx: (minX + maxX) / 2, cy: (minY + maxY) / 2,
		rx: (maxX - minX) / 2, ry: (maxY - minY) / 2,
	}
}

// legLoss accumulates penetration losses of walls crossed by the open
// segment from a to b, skipping walls stamped with the current skip
// generation (the mirrors a reflected path legitimately touches). It
// reports blocked=true when a Blocking wall is crossed. Candidates come
// from the grid and are re-tested with the exact naive predicates. The
// candidate order is irrelevant to the tests themselves (IntersectInterior
// is pure, and "some blocking wall is crossed" is a set property), so the
// list is scanned unsorted; only the few walls actually crossed are
// sorted, which keeps the penetration-loss float summation in the naive
// scan's ascending wall order — bit-identical to the full scan.
func (t *Tracer) legLoss(a, b geom.Vec2) (lossDB float64, blocked bool) {
	seg := geom.Seg(a, b)
	t.legIdx = t.grid.AppendSegmentWalls(t.legIdx[:0], a, b)
	walls := t.Room.Walls
	hits := t.legHit[:0]
	for _, wi := range t.legIdx {
		if t.skipGen[wi] == t.skipCur {
			continue
		}
		w := &walls[wi]
		if _, _, ok := seg.IntersectInterior(w.Segment, blockEps); !ok {
			continue
		}
		if w.Blocking {
			return 0, true
		}
		hits = append(hits, wi)
	}
	t.legHit = hits[:0]
	sortInt32(hits)
	for _, wi := range hits {
		lossDB += t.wallMats[wi].PenetrationLossDB
	}
	return lossDB, false
}

// sortInt32 is an insertion sort for the tiny crossed-wall lists legLoss
// produces (almost always under a handful of entries).
func sortInt32(s []int32) {
	for i := 1; i < len(s); i++ {
		v := s[i]
		j := i - 1
		for j >= 0 && s[j] > v {
			s[j+1] = s[j]
			j--
		}
		s[j+1] = v
	}
}

// reflectionLoss returns the specular loss of a bounce at point p on the
// wall at index wi for a ray arriving from 'from'.
func (t *Tracer) reflectionLoss(wi int, from, p geom.Vec2) float64 {
	w := t.Room.Walls[wi]
	dir := p.Sub(from).Unit()
	n := w.Normal()
	// Incidence angle from the surface normal.
	c := math.Abs(dir.Dot(n))
	if c > 1 {
		c = 1
	}
	incidence := math.Acos(c)
	return t.wallMats[wi].ReflectionLossDB(incidence)
}

// appendPath finishes the path staged in ptsScratch[:n] (length, FSPL,
// atmospheric loss, departure/arrival angles — the same arithmetic as the
// naive finishPath) and appends it to dst unless the loss cutoff drops
// it. Point storage is recycled: a spare element beyond len(dst) donates
// its slab, then the tracer's freelist, and only then a fresh allocation.
func (t *Tracer) appendPath(dst []Path, n int, extraLossDB float64, order int) []Path {
	pts := t.ptsScratch[:n]
	length := 0.0
	for i := 1; i < n; i++ {
		length += pts[i-1].Dist(pts[i])
	}
	loss := t.baseLossDB(length) + extraLossDB
	if t.MaxLossDB > 0 && loss > t.MaxLossDB {
		return dst
	}
	aod := pts[1].Sub(pts[0]).Angle()
	aoa := pts[n-2].Sub(pts[n-1]).Angle()
	stable := t.takePoints(dst)[:n]
	copy(stable, pts)
	return append(dst, Path{
		Points: stable,
		LossDB: loss,
		AoD:    aod,
		AoA:    aoa,
		Length: length,
		Order:  order,
	})
}

// takePoints returns an empty capacity-maxTracePoints point slab:
// preferentially the one parked on dst's next spare element (storage the
// caller surrendered via TraceAppend(dst[:0], …)), then the freelist.
func (t *Tracer) takePoints(dst []Path) []geom.Vec2 {
	if n := len(dst); cap(dst) > n {
		spare := dst[: n+1 : cap(dst)]
		if p := spare[n].Points; cap(p) >= maxTracePoints {
			spare[n].Points = nil
			return p[:0]
		}
	}
	if k := len(t.ptsFree); k > 0 {
		p := t.ptsFree[k-1]
		t.ptsFree[k-1] = nil
		t.ptsFree = t.ptsFree[:k-1]
		return p[:0]
	}
	return make([]geom.Vec2, 0, maxTracePoints)
}

// ReleasePaths surrenders the point storage of every path in ps to the
// tracer's freelist and zeroes the entries. Callers dropping a cached
// path list wholesale use it so the next trace reuses the slabs; the
// entries must not be read afterwards.
func (t *Tracer) ReleasePaths(ps []Path) {
	for i := range ps {
		if p := ps[i].Points; cap(p) >= maxTracePoints {
			t.ptsFree = append(t.ptsFree, p[:0])
		}
		ps[i] = Path{}
	}
}

// Trace returns all propagation paths from tx to rx up to MaxOrder
// reflections, strongest first is NOT guaranteed; callers that need
// ordering sort by LossDB.
func (t *Tracer) Trace(tx, rx geom.Vec2) ([]Path, error) {
	return t.TraceAppend(nil, tx, rx)
}

// TraceAppend is Trace appending onto dst, reusing dst's spare capacity
// — including the Points slabs of surrendered elements beyond len(dst)
// — so a steady-state re-trace (the medium's channel cache after a wall
// move) allocates nothing. The caller transfers ownership of dst's full
// capacity: entries beyond len(dst) must not alias paths still in use.
// On error dst is returned unchanged with a *GeometryError.
func (t *Tracer) TraceAppend(dst []Path, tx, rx geom.Vec2) ([]Path, error) {
	if t.Naive {
		return t.traceNaive(dst, tx, rx)
	}
	if err := t.syncMaterials(); err != nil {
		return dst, &GeometryError{Tx: tx, Rx: rx, Err: err}
	}
	t.syncGeometry()
	t.sideCrosses(tx, rx)

	// Line of sight.
	if d := tx.Dist(rx); d > 0 && !(t.MaxLossDB > 0 && t.baseLossDB(d) > t.MaxLossDB) {
		t.skipCur++
		if loss, blocked := t.legLoss(tx, rx); !blocked {
			t.ptsScratch[0], t.ptsScratch[1] = tx, rx
			dst = t.appendPath(dst, 2, loss, 0)
		}
	}
	if t.MaxOrder >= 1 {
		dst = t.traceFirstOrder(dst, tx, rx)
	}
	if t.MaxOrder >= 2 {
		t.walkSecondOrder(tx, rx, func(i, j int, p1, p2 geom.Vec2) bool {
			dst = t.appendSecondOrder(dst, i, j, tx, p1, p2, rx)
			return true
		})
	}
	return dst, nil
}

// sideCrosses fills txCross/rxCross with the SameSide cross products of
// tx and rx against every wall line, computed once per query with
// exactly the expressions geom.Segment.SameSide uses.
func (t *Tracer) sideCrosses(tx, rx geom.Vec2) {
	walls := t.Room.Walls
	for i := range walls {
		s := &walls[i].Segment
		d := s.B.Sub(s.A)
		t.txCross[i] = d.Cross(tx.Sub(s.A))
		t.rxCross[i] = d.Cross(rx.Sub(s.A))
	}
}

// baseLossDB is the loss of the bare path length — FSPL plus
// atmospheric, the leading term of appendPath's sum and the bound every
// loss cutoff tests.
func (t *Tracer) baseLossDB(length float64) float64 {
	return FSPLdB(length, t.FreqHz) + AtmosphericLossDB(length, t.FreqHz)
}

// overBudget is the per-leg loss cutoff: base plus the losses summed so
// far already exceeds MaxLossDB. appendPath's loss is base + (((l1+l2)
// +l3)+rl1)+rl2 with every term ≥ 0 (mat rejects negative and NaN
// losses), and rounded addition of non-negative floats never decreases
// a sum, so a path over budget after any leg is dropped by appendPath
// in every case — its remaining leg walks can be skipped.
func (t *Tracer) overBudget(base, partial float64) bool {
	return t.MaxLossDB > 0 && base+partial > t.MaxLossDB
}

func (t *Tracer) traceFirstOrder(dst []Path, tx, rx geom.Vec2) []Path {
	walls := t.Room.Walls
	for i := range walls {
		// A specular bounce requires both endpoints on the same side of
		// the mirror wall; txCross/rxCross are the SameSide cross
		// products, precomputed once per query.
		if !(t.txCross[i]*t.rxCross[i] > 0) {
			continue
		}
		w := walls[i]
		img := w.Mirror(tx)
		_, u, ok := geom.Seg(img, rx).Intersect(w.Segment)
		if !ok || u <= 0 || u >= 1 {
			continue
		}
		p := w.Point(u)
		// Loss cutoffs — see appendSecondOrder; identical reasoning.
		base := 0.0
		if t.MaxLossDB > 0 {
			base = t.baseLossDB(tx.Dist(p) + p.Dist(rx))
			if base > t.MaxLossDB {
				continue
			}
		}
		t.skipCur++
		t.skipGen[i] = t.skipCur
		l1, b1 := t.legLoss(tx, p)
		if b1 || t.overBudget(base, l1) {
			continue
		}
		l2, b2 := t.legLoss(p, rx)
		l12 := l1 + l2
		if b2 || t.overBudget(base, l12) {
			continue
		}
		rl := t.reflectionLoss(i, tx, p)
		t.ptsScratch[0], t.ptsScratch[1], t.ptsScratch[2] = tx, p, rx
		dst = t.appendPath(dst, 3, l12+rl, 1)
	}
	return dst
}

// appendSecondOrder is Trace's consumer of a second-order survivor of
// walkSecondOrder: it walks the three legs and appends the path unless
// it is blocked or over the loss budget.
func (t *Tracer) appendSecondOrder(dst []Path, i, j int, tx, p1, p2, rx geom.Vec2) []Path {
	// Early loss cutoff: FSPL + atmospheric of the bare path length is
	// a lower bound on the final loss (penetration and reflection only
	// add, and adding non-negative floats never decreases a sum), so a
	// path already over budget here is dropped by appendPath in every
	// case — skip its three leg walks. The length sum matches
	// appendPath's term order exactly. After each leg, overBudget
	// repeats the test with the penetration losses summed so far, in
	// the order appendPath's extra loss adds them.
	base := 0.0
	if t.MaxLossDB > 0 {
		base = t.baseLossDB(tx.Dist(p1) + p1.Dist(p2) + p2.Dist(rx))
		if base > t.MaxLossDB {
			return dst
		}
	}
	t.skipCur++
	t.skipGen[i] = t.skipCur
	t.skipGen[j] = t.skipCur
	l1, b1 := t.legLoss(tx, p1)
	if b1 || t.overBudget(base, l1) {
		return dst
	}
	l2, b2 := t.legLoss(p1, p2)
	l12 := l1 + l2
	if b2 || t.overBudget(base, l12) {
		return dst
	}
	l3, b3 := t.legLoss(p2, rx)
	l123 := l12 + l3
	if b3 || t.overBudget(base, l123) {
		return dst
	}
	rl1 := t.reflectionLoss(i, tx, p1)
	rl2 := t.reflectionLoss(j, p1, p2)
	t.ptsScratch[0], t.ptsScratch[1], t.ptsScratch[2], t.ptsScratch[3] = tx, p1, p2, rx
	return t.appendPath(dst, 4, l123+rl1+rl2, 2)
}

// secondOrderVisit consumes one second-order survivor: first mirror i,
// second mirror j, and bounce points p1 on wall i and p2 on wall j that
// pass every exact image-method predicate (both Intersects strictly
// inside their walls, both SameSide checks). Returning false stops the
// walk.
type secondOrderVisit func(i, j int, p1, p2 geom.Vec2) bool

// wedge is the region a ray from apex enters once it has crossed segment
// s: the cone from apex spanned by s's endpoints, past s's line. A first
// mirror's image cone is one (apex img1, s the mirror wall): every
// second bounce point lies in it. The cone edges eA/eB are swapped so
// the interior is on the positive side of eA and the negative side of
// eB; edges is false when that orientation is within sideMargin of zero,
// which turns the edge culls off. far is the sign of cross(d, q−a) for
// points q past s's line (0: unknown, no line cull). The L1 norms scale
// the conservative margins.
type wedge struct {
	apex               geom.Vec2
	eAx, eAy, eBx, eBy float64
	nEA, nEB           float64
	edges              bool
	a                  geom.Vec2
	dx, dy, nD         float64
	far                int
}

// newWedge is the wedge from apex through s whose region lies on side
// far of s's line.
func newWedge(apex geom.Vec2, s geom.Segment, far int) wedge {
	w := wedge{
		apex: apex,
		eAx:  s.A.X - apex.X,
		eAy:  s.A.Y - apex.Y,
		eBx:  s.B.X - apex.X,
		eBy:  s.B.Y - apex.Y,
		a:    s.A,
		dx:   s.B.X - s.A.X,
		dy:   s.B.Y - s.A.Y,
		far:  far,
	}
	o := w.eAx*w.eBy - w.eAy*w.eBx
	if o < 0 {
		w.eAx, w.eAy, w.eBx, w.eBy = w.eBx, w.eBy, w.eAx, w.eAy
		o = -o
	}
	w.nEA = math.Abs(w.eAx) + math.Abs(w.eAy)
	w.nEB = math.Abs(w.eBx) + math.Abs(w.eBy)
	w.nD = math.Abs(w.dx) + math.Abs(w.dy)
	w.edges = o > sideMargin*w.nEA*w.nEB
	return w
}

// shadow is the wedge behind s as seen from apex: where a ray from apex
// goes on after crossing s.
func shadow(apex geom.Vec2, s geom.Segment) wedge {
	d := s.B.Sub(s.A)
	return newWedge(apex, s, -side(s.A, d, math.Abs(d.X)+math.Abs(d.Y), apex))
}

// missesBox reports whether block box bb lies confidently outside the
// wedge. The edge and line predicates are linear in the point, and the
// box extremes of a cross product are center ± (|e.x|·ry+|e.y|·rx), so
// one cross product per predicate decides the whole box; margins keep
// the cull conservative.
func (w *wedge) missesBox(bb *wallBlock) bool {
	qCx, qCy := bb.cx-w.apex.X, bb.cy-w.apex.Y
	nQC := math.Abs(qCx) + math.Abs(qCy) + bb.rx + bb.ry
	if w.edges {
		extA := math.Abs(w.eAx)*bb.ry + math.Abs(w.eAy)*bb.rx
		if w.eAx*qCy-w.eAy*qCx+extA < -sideMargin*w.nEA*nQC {
			return true
		}
		extB := math.Abs(w.eBx)*bb.ry + math.Abs(w.eBy)*bb.rx
		if w.eBx*qCy-w.eBy*qCx-extB > sideMargin*w.nEB*nQC {
			return true
		}
	}
	sCx, sCy := bb.cx-w.a.X, bb.cy-w.a.Y
	sC := w.dx*sCy - w.dy*sCx
	extD := math.Abs(w.dx)*bb.ry + math.Abs(w.dy)*bb.rx
	mD := sideMargin * w.nD * (math.Abs(sCx) + math.Abs(sCy) + bb.rx + bb.ry)
	switch w.far {
	case 1:
		return sC+extD < -mD
	case -1:
		return sC-extD > mD
	}
	return false
}

// missesSeg reports whether segment s lies confidently outside the
// wedge: both endpoints beyond one cone edge, or both short of the
// wedge's line.
func (w *wedge) missesSeg(s geom.Segment) bool {
	if w.edges && (bothSide(w.apex, geom.V(w.eAx, w.eAy), w.nEA, s) == -1 ||
		bothSide(w.apex, geom.V(w.eBx, w.eBy), w.nEB, s) == 1) {
		return true
	}
	return w.far != 0 && bothSide(w.a, geom.V(w.dx, w.dy), w.nD, s) == -w.far
}

// side classifies q against the line through o along e: +1 or −1 when
// cross(e, q−o) is confidently positive or negative, 0 when it is within
// sideMargin of zero.
func side(o, e geom.Vec2, nE float64, q geom.Vec2) int {
	qo := q.Sub(o)
	c := e.Cross(qo)
	m := sideMargin * nE * (math.Abs(qo.X) + math.Abs(qo.Y))
	switch {
	case c > m:
		return 1
	case c < -m:
		return -1
	}
	return 0
}

// bothSide is side of both of s's endpoints when they agree, else 0.
func bothSide(o, e geom.Vec2, nE float64, s geom.Segment) int {
	if a := side(o, e, nE, s.A); a != 0 && side(o, e, nE, s.B) == a {
		return a
	}
	return 0
}

// mirrorRow is one first mirror's share of the second-order walk: wall
// i and its image cone from img1, tx mirrored across it. A candidate
// second bounce point must be reachable by a ray from img1 through the
// wall's interior (the first Intersect bounds both parameters to (0,1))
// and lie on tx's side of it (SameSide), so it lies in the cone.
type mirrorRow struct {
	i    int
	cone wedge
}

// mirrorRow sets up first mirror i's row; txCross must hold the query's
// side crosses and txCross[i] must be non-zero.
func (t *Tracer) mirrorRow(i int, tx geom.Vec2) mirrorRow {
	w1 := &t.Room.Walls[i]
	return mirrorRow{i: i, cone: newWedge(w1.Mirror(tx), w1.Segment, farSide(t.txCross[i]))}
}

// farSide is the wedge side (see wedge.far) of the points across a wall
// line from a point whose side cross is cross: the side a ray from that
// point reaches after crossing the wall.
func farSide(cross float64) int {
	if cross < 0 {
		return -1
	}
	return 1
}

// walkSecondOrder enumerates the current-wall × current-wall mirror
// pairs row by row, each row block by block — the block culls first,
// then the per-pair culls and the exact image-method predicates — and
// hands every survivor to visit in ascending (i, j) order, the naive
// scan's order. Trace is its consumer; PairAffected walks the part of
// the same rows a move can reach (walkReachable). txCross/rxCross must
// hold the query's side crosses (sideCrosses). It reports false if visit
// stopped the walk.
func (t *Tracer) walkSecondOrder(tx, rx geom.Vec2, visit secondOrderVisit) bool {
	for i := range t.Room.Walls {
		if t.txCross[i] == 0 {
			// SameSide(tx, p2) is cp*cq > 0 with cp exactly zero: false
			// for every bounce point, so the whole row is dead.
			continue
		}
		row := t.mirrorRow(i, tx)
		if !t.walkRow(&row, tx, rx, visit) {
			return false
		}
	}
	return true
}

// walkRow walks every second mirror of row's first mirror, skipping the
// blocks confidently outside its image cone. The loop is missesBox with
// the cone's fields hoisted: it is Trace's innermost block loop.
func (t *Tracer) walkRow(row *mirrorRow, tx, rx geom.Vec2, visit secondOrderVisit) bool {
	n := len(t.Room.Walls)
	c := &row.cone
	apex, a := c.apex, c.a
	eAx, eAy, eBx, eBy := c.eAx, c.eAy, c.eBx, c.eBy
	mA, mB := sideMargin*c.nEA, sideMargin*c.nEB
	dx, dy, mD1 := c.dx, c.dy, sideMargin*c.nD
	edges, far := c.edges, c.far
	for b := range t.blocks {
		bb := &t.blocks[b]
		qCx, qCy := bb.cx-apex.X, bb.cy-apex.Y
		nQC := math.Abs(qCx) + math.Abs(qCy) + bb.rx + bb.ry
		if edges {
			extA := math.Abs(eAx)*bb.ry + math.Abs(eAy)*bb.rx
			if eAx*qCy-eAy*qCx+extA < -mA*nQC {
				continue
			}
			extB := math.Abs(eBx)*bb.ry + math.Abs(eBy)*bb.rx
			if eBx*qCy-eBy*qCx-extB > mB*nQC {
				continue
			}
		}
		sCx, sCy := bb.cx-a.X, bb.cy-a.Y
		sC := dx*sCy - dy*sCx
		extD := math.Abs(dx)*bb.ry + math.Abs(dy)*bb.rx
		mD := mD1 * (math.Abs(sCx) + math.Abs(sCy) + bb.rx + bb.ry)
		if far > 0 {
			if sC+extD < -mD {
				continue
			}
		} else if sC-extD > mD {
			continue
		}
		lo := b * wallsPerBlock
		if !t.walkSecondBlock(row, lo, min(lo+wallsPerBlock, n), tx, rx, visit) {
			return false
		}
	}
	return true
}

// walkSecondBlock runs the per-pair culls and exact image-method
// predicates over second mirrors j ∈ [lo, hi) of row's first mirror,
// handing survivors to visit.
func (t *Tracer) walkSecondBlock(row *mirrorRow, lo, hi int, tx, rx geom.Vec2, visit secondOrderVisit) bool {
	walls := t.Room.Walls
	i := row.i
	w1 := walls[i]
	c := &row.cone
	img1 := c.apex
	eAx, eAy, eBx, eBy := c.eAx, c.eAy, c.eBx, c.eBy
	nEA, nEB, edges := c.nEA, c.nEB, c.edges
	for j := lo; j < hi; j++ {
		if j == i {
			continue
		}
		// SameSide(p1, rx) against w2 is cp*cq > 0 with cq exactly zero:
		// false for every bounce point.
		cqRx := t.rxCross[j]
		if cqRx == 0 {
			continue
		}
		w2 := walls[j]
		// Mirror-image side precheck: the last-leg Intersect needs
		// the crossing between img2 and rx, so img2 and rx sit on
		// opposite sides of w2 — equivalently img1 and rx on the
		// SAME side (img2 mirrors img1 across w2). cross(qA, qB)
		// equals cross(d_j, img1 − w2.A) exactly, so its sign is
		// img1's side; cull on a confident mismatch with rx's side.
		qAx, qAy := w2.A.X-img1.X, w2.A.Y-img1.Y
		qBx, qBy := w2.B.X-img1.X, w2.B.Y-img1.Y
		nQA := math.Abs(qAx) + math.Abs(qAy)
		nQB := math.Abs(qBx) + math.Abs(qBy)
		cImg := qAx*qBy - qAy*qBx
		mImg := sideMargin * nQA * nQB
		if (cqRx > 0 && cImg < -mImg) || (cqRx < 0 && cImg > mImg) {
			continue
		}
		// Cone precull: if w2 lies confidently outside either cone
		// edge, no point of w2 is reachable through w1 from img1 and
		// the pair cannot yield a path. Margins keep the cull
		// conservative — grazing geometry falls through to the exact
		// predicates below.
		if edges {
			caA := eAx*qAy - eAy*qAx
			caB := eAx*qBy - eAy*qBx
			mA := sideMargin * nEA * (nQA + nQB)
			if caA < -mA && caB < -mA {
				continue
			}
			cbA := eBx*qAy - eBy*qAx
			cbB := eBx*qBy - eBy*qBx
			mB := sideMargin * nEB * (nQA + nQB)
			if cbA > mB && cbB > mB {
				continue
			}
		}
		img2 := w2.Mirror(img1)
		// Work backwards: the last bounce is on w2.
		_, u2, ok := geom.Seg(img2, rx).Intersect(w2.Segment)
		if !ok || u2 <= 0 || u2 >= 1 {
			continue
		}
		p2 := w2.Point(u2)
		_, u1, ok := geom.Seg(img1, p2).Intersect(w1.Segment)
		if !ok || u1 <= 0 || u1 >= 1 {
			continue
		}
		p1 := w1.Point(u1)
		// Physicality: the incoming and outgoing legs of each bounce
		// must lie on the same side of the mirror wall. These are the
		// exact naive checks — the culls above only skip pairs these
		// would reject.
		if !w1.SameSide(tx, p2) || !w2.SameSide(p1, rx) {
			continue
		}
		if !visit(i, j, p1, p2) {
			return false
		}
	}
	return true
}

// survivesUnmoved is the liveness rule PairAffected and its naive
// oracle share: the candidate path pts (tx, its bounce points, rx) is
// alive unless a leg crosses a Blocking wall the skip set of legLoss
// leaves in — every moved wall and the candidate's own mirrors are
// skipped, so only unmoved walls count — or its bare FSPL plus
// atmospheric loss, then that plus the unmoved penetration losses
// summed leg by leg, exceeds MaxLossDB. The sums run in appendPath's
// order, and Trace's loss adds only non-negative terms to them (moved
// walls' penetration, reflection losses); rounded addition of
// non-negative floats never decreases a sum, so a candidate this rejects
// is dropped by Trace in any geometry that keeps the unmoved walls.
func (t *Tracer) survivesUnmoved(pts []geom.Vec2, legLoss func(a, b geom.Vec2) (float64, bool)) bool {
	base := 0.0
	if t.MaxLossDB > 0 {
		length := 0.0
		for k := 1; k < len(pts); k++ {
			length += pts[k-1].Dist(pts[k])
		}
		base = t.baseLossDB(length)
		if base > t.MaxLossDB {
			return false
		}
	}
	sum := 0.0
	for k := 1; k < len(pts); k++ {
		l, blocked := legLoss(pts[k-1], pts[k])
		sum += l
		if blocked || t.overBudget(base, sum) {
			return false
		}
	}
	return true
}

// survives is survivesUnmoved over the indexed leg walk, its skip set
// stamped with every moved wall plus the candidate's own mirrors i and j
// (−1 for none; a phantom's mirror is a moved wall already).
func (t *Tracer) survives(i, j int, pts ...geom.Vec2) bool {
	t.skipCur++
	for _, k := range t.paMovedIdx {
		t.skipGen[k] = t.skipCur
	}
	if i >= 0 {
		t.skipGen[i] = t.skipCur
	}
	if j >= 0 {
		t.skipGen[j] = t.skipCur
	}
	return t.survivesUnmoved(pts, t.legLoss)
}

// PairAffected reports whether the channel between tx and rx can differ
// between the geometry before the given wall moves and the current one.
// It is the selective invalidation predicate behind sim.Medium's channel
// cache: when an obstacle moves (the blockage walker of experiment X1),
// only pairs for which it returns true are re-traced; the others keep
// their paths.
//
// The candidates are the pair's image-method paths (LOS and reflections
// up to MaxOrder) over the current walls plus one phantom per move
// holding the old segment. A candidate touches the moves if it reflects
// off a moved wall, at its old or new position, or one of its legs
// crosses a moved segment, old or new. The pair is affected iff some
// touching candidate survives the unmoved walls (survivesUnmoved): no
// leg crosses an unmoved Blocking wall other than its own mirrors, and
// its bare loss plus unmoved penetration stays within MaxLossDB. Unmoved
// walls are the same before and after, so a touching candidate that
// fails is dropped by Trace in both geometries, and a candidate that
// touches nothing traces identically in both: a pair reported unaffected
// re-traces to exactly the paths it has. The converse does not hold — a
// reported pair may re-trace unchanged, which costs one redundant
// re-trace. A material resolution error reports true, so the re-trace
// surfaces it.
//
// Second order walks only what a move can reach (walkReachable). What
// that walk needs from one endpoint alone — tx's images and row reach,
// rx's column reach — is computed once per endpoint and move batch and
// reused by every call that shares the endpoint (views.go), so a caller
// checking every pair after a move pays it once per endpoint, not once
// per pair. The line-of-sight, first-order and phantom loops (pairs with
// an old segment, at most the move-log depth) are direct scans; the
// phantom loops take tx's images from its view. The result is identical
// to the naive enumeration (pairAffectedNaive).
func (t *Tracer) PairAffected(tx, rx geom.Vec2, moves []geom.WallMove) bool {
	if len(moves) == 0 {
		return false
	}
	if t.Naive {
		return t.pairAffectedNaive(tx, rx, moves)
	}
	if t.syncMaterials() != nil {
		return true
	}
	t.syncGeometry()
	t.syncBatch(moves)
	walls := t.Room.Walls

	// Line of sight.
	if t.legTouches(tx, rx) && t.survives(-1, -1, tx, rx) {
		return true
	}
	if t.MaxOrder < 1 {
		return false
	}
	// First-order candidates: current walls, then the phantom old
	// segments (which are moved by definition).
	for i := range walls {
		if t.firstOrderAffected(walls[i].Segment, i, t.paMoved[i] == t.paMovedCur, tx, rx) {
			return true
		}
	}
	for _, s := range t.paPhantoms {
		if t.firstOrderAffected(s, -1, true, tx, rx) {
			return true
		}
	}
	if t.MaxOrder < 2 {
		return false
	}
	// Second-order candidates, current × current: stop on the first
	// touching survivor.
	t.sideCrosses(tx, rx)
	rows, cols := t.endpointViews(tx, rx)
	if !t.walkReachable(rows, cols, tx, rx, func(i, j int, p1, p2 geom.Vec2) bool {
		touched := t.paMoved[i] == t.paMovedCur || t.paMoved[j] == t.paMovedCur ||
			t.legTouches(tx, p1) || t.legTouches(p1, p2) || t.legTouches(p2, rx)
		return !(touched && t.survives(i, j, tx, p1, p2, rx))
	}) {
		return true
	}
	// Pairs involving a phantom (first mirror, second mirror, or both)
	// reflect off a moved wall, so they all touch.
	for pi, p1 := range t.paPhantoms {
		img1 := p1.Mirror(tx)
		for i := range walls {
			if t.secondOrderAffected(p1, walls[i].Segment, img1, -1, i, tx, rx) {
				return true
			}
		}
		for pj, p2 := range t.paPhantoms {
			if pi != pj && t.secondOrderAffected(p1, p2, img1, -1, -1, tx, rx) {
				return true
			}
		}
	}
	for i := range walls {
		for _, p2 := range t.paPhantoms {
			if t.secondOrderAffected(walls[i].Segment, p2, rows[i].img, i, -1, tx, rx) {
				return true
			}
		}
	}
	return false
}

// walkReachable is walkSecondOrder restricted to the mirror pairs
// through which a candidate can touch a move, over tx's rows and rx's
// columns (views.go): each row's reached blocks of second mirrors, then
// each column's reached blocks of first mirrors. txCross/rxCross must
// hold the query's side crosses. A pair can be visited by both passes,
// which only repeats the exact predicates; those and visit decide every
// pair walked.
func (t *Tracer) walkReachable(rows []viewRow, cols []viewCol, tx, rx geom.Vec2, visit secondOrderVisit) bool {
	n := len(t.Room.Walls)
	blocks := t.views.blocks
	if len(t.paRows) != n {
		// Sized here, not in syncGeometry: a tracer that only traces
		// never needs them.
		t.paRowGen = growUint64(t.paRowGen, n)
		if cap(t.paRows) < n {
			t.paRows = make([]mirrorRow, n)
		}
		t.paRows = t.paRows[:n]
	}
	t.paRowCur++
	for i := range rows {
		r := &rows[i]
		if r.lo == r.hi {
			continue
		}
		row := t.rowAt(rows, i)
		for _, b := range blocks[r.lo:r.hi] {
			lo := int(b) * wallsPerBlock
			if !t.walkSecondBlock(row, lo, min(lo+wallsPerBlock, n), tx, rx, visit) {
				return false
			}
		}
	}
	for _, c := range cols {
		j := int(c.j)
		for _, b := range blocks[c.lo:c.hi] {
			lo := int(b) * wallsPerBlock
			for i := lo; i < min(lo+wallsPerBlock, n); i++ {
				// Dead rows yield nothing; moved rows were walked in full.
				if t.txCross[i] == 0 || t.paMoved[i] == t.paMovedCur {
					continue
				}
				if !t.walkSecondBlock(t.rowAt(rows, i), j, j+1, tx, rx, visit) {
					return false
				}
			}
		}
	}
	return true
}

// rowAt is row i of tx's rows set up for walkSecondBlock, built at most
// once per walk: a column pass visits a row once per column.
func (t *Tracer) rowAt(rows []viewRow, i int) *mirrorRow {
	row := &t.paRows[i]
	if t.paRowGen[i] != t.paRowCur {
		row.i, row.cone = i, newWedge(rows[i].img, t.Room.Walls[i].Segment, farSide(t.txCross[i]))
		t.paRowGen[i] = t.paRowCur
	}
	return row
}

// reachedBlocks appends to dst the blocks that meet cone and one of the
// reach wedges (every block that meets cone when all is set).
func (t *Tracer) reachedBlocks(dst []int32, cone *wedge, reach []wedge, all bool) []int32 {
	for b := range t.blocks {
		bb := &t.blocks[b]
		if cone.missesBox(bb) || !(all || meetsBox(reach, bb)) {
			continue
		}
		dst = append(dst, int32(b))
	}
	return dst
}

// mirrorSeg is s mirrored across the line through w.
func mirrorSeg(w, s geom.Segment) geom.Segment {
	return geom.Seg(w.Mirror(s.A), w.Mirror(s.B))
}

// meetsAny reports whether segment s may meet one of the wedges.
func meetsAny(ws []wedge, s geom.Segment) bool {
	for k := range ws {
		if !ws[k].missesSeg(s) {
			return true
		}
	}
	return false
}

// meetsBox reports whether block box bb may meet one of the wedges.
func meetsBox(ws []wedge, bb *wallBlock) bool {
	for k := range ws {
		if !ws[k].missesBox(bb) {
			return true
		}
	}
	return false
}

func (t *Tracer) legTouches(a, b geom.Vec2) bool {
	leg := geom.Seg(a, b)
	for _, s := range t.paSegs {
		if _, _, ok := leg.IntersectInterior(s, blockEps); ok {
			return true
		}
	}
	return false
}

// firstOrderAffected reports whether the single bounce off w (wall wi,
// or −1 for a phantom) touches the moves and survives the unmoved walls.
func (t *Tracer) firstOrderAffected(w geom.Segment, wi int, moved bool, tx, rx geom.Vec2) bool {
	if !w.SameSide(tx, rx) {
		return false
	}
	img := w.Mirror(tx)
	_, u, ok := geom.Seg(img, rx).Intersect(w)
	if !ok || u <= 0 || u >= 1 {
		return false
	}
	p := w.Point(u)
	return (moved || t.legTouches(tx, p) || t.legTouches(p, rx)) && t.survives(wi, -1, tx, p, rx)
}

// secondOrderAffected reports whether the double bounce off w1 then w2
// (walls i and j, −1 for a phantom) exists and survives the unmoved
// walls. Its callers pass at least one phantom, so it touches the moves.
func (t *Tracer) secondOrderAffected(w1, w2 geom.Segment, img1 geom.Vec2, i, j int, tx, rx geom.Vec2) bool {
	img2 := w2.Mirror(img1)
	_, u2, ok := geom.Seg(img2, rx).Intersect(w2)
	if !ok || u2 <= 0 || u2 >= 1 {
		return false
	}
	p2 := w2.Point(u2)
	_, u1, ok := geom.Seg(img1, p2).Intersect(w1)
	if !ok || u1 <= 0 || u1 >= 1 {
		return false
	}
	p1 := w1.Point(u1)
	if !w1.SameSide(tx, p2) || !w2.SameSide(p1, rx) {
		return false
	}
	return t.survives(i, j, tx, p1, p2, rx)
}

// GainFunc maps a global-frame angle (radians) to an antenna gain in dBi.
// The rf package takes gain functions rather than antenna types to avoid
// a dependency on the antenna package; the sim layer binds the two.
type GainFunc func(angle float64) float64

// ReceivedPowerDBm sums the per-path received powers (non-coherently) for
// a transmission at txPowerDBm through txGain/rxGain patterns. The
// non-coherent sum models the wideband (1.76 GHz) channel, where paths
// separated by more than a fraction of a nanosecond do not produce
// narrowband fading.
func ReceivedPowerDBm(txPowerDBm float64, paths []Path, txGain, rxGain GainFunc) float64 {
	totalMw := 0.0
	for _, p := range paths {
		gainDB := txPowerDBm + txGain(p.AoD) + rxGain(p.AoA) - p.LossDB
		totalMw += DbToLin(gainDB)
	}
	if totalMw <= 0 {
		return math.Inf(-1)
	}
	return LinToDb(totalMw)
}

// StrongestPath returns the index of the path with the highest received
// power under the given patterns, or -1 for an empty channel.
func StrongestPath(paths []Path, txGain, rxGain GainFunc) int {
	best, bestIdx := math.Inf(-1), -1
	for i, p := range paths {
		g := txGain(p.AoD) + rxGain(p.AoA) - p.LossDB
		if g > best {
			best = g
			bestIdx = i
		}
	}
	return bestIdx
}

// String renders a short description of the path for trace dumps.
func (p Path) String() string {
	kind := "LOS"
	if p.Order == 1 {
		kind = "1st-order"
	} else if p.Order == 2 {
		kind = "2nd-order"
	} else if p.Order > 2 {
		kind = fmt.Sprintf("%d-order", p.Order)
	}
	return fmt.Sprintf("%s len=%.2fm loss=%.1fdB AoD=%.0f° AoA=%.0f°",
		kind, p.Length, p.LossDB, geom.Deg(p.AoD), geom.Deg(p.AoA))
}

// Isotropic is the unity-gain pattern.
func Isotropic(float64) float64 { return 0 }
