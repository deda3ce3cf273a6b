package geom

import "math"

// Grid is a uniform spatial index over a room's wall segments. Each wall
// is rasterized into the square cells its segment passes through; a ray
// query then visits only the cells along the query segment and tests the
// walls registered there, instead of scanning the whole room.
//
// The index is exact in the only sense that matters to the ray tracer:
// the candidate set returned for a query segment is a superset of the
// walls the segment intersects. Rasterization is conservative (cell
// ranges are expanded by a small epsilon before flooring), and both the
// registered walls and the query use the same rasterizer, so any
// intersection point lands in at least one cell common to both. Callers
// re-test candidates with the exact segment predicates, which keeps
// results bit-identical to a full scan.
//
// A grid tracks its room by epoch and wall count: Sync rebuilds the whole
// index whenever either changed, re-fitting the bounds to every wall, so
// every wall lies inside the cells.
type Grid struct {
	ox, oy float64 // origin of cell (0,0)
	cell   float64 // cell side length
	inv    float64 // 1/cell
	nx, ny int

	// cells holds the wall indices registered per cell, cell (ix,iy) at
	// slot iy*nx+ix. Order within a cell is irrelevant: queries dedup
	// and callers sort.
	cells [][]int32

	// seen/gen dedup candidates across the cells one query visits.
	seen []uint64
	gen  uint64

	cellScratch []int32

	epoch  uint64
	nWalls int
	built  bool
}

// gridMaxCellsPerAxis bounds the cell count so degenerate aspect ratios
// or huge rooms cannot blow up memory; with the sqrt sizing rule below
// the bound is only reached past ~32k walls.
const gridMaxCellsPerAxis = 256

// Sync reconciles the grid with the room: any change of epoch or wall
// count since the last Sync rebuilds it.
func (g *Grid) Sync(room *Room) {
	if g.built && g.epoch == room.Epoch() && g.nWalls == len(room.Walls) {
		return
	}
	g.rebuild(room)
}

func (g *Grid) rebuild(room *Room) {
	g.nWalls = len(room.Walls)
	g.epoch = room.Epoch()
	g.built = true
	walls := room.Walls
	if len(walls) == 0 {
		g.nx, g.ny = 0, 0
		g.cells = g.cells[:0]
		return
	}
	minX, minY := walls[0].A.X, walls[0].A.Y
	maxX, maxY := minX, minY
	for _, w := range walls {
		minX = math.Min(minX, math.Min(w.A.X, w.B.X))
		maxX = math.Max(maxX, math.Max(w.A.X, w.B.X))
		minY = math.Min(minY, math.Min(w.A.Y, w.B.Y))
		maxY = math.Max(maxY, math.Max(w.A.Y, w.B.Y))
	}
	spanX, spanY := maxX-minX, maxY-minY
	maxSpan := math.Max(spanX, spanY)
	// ~2 cells per wall keeps per-cell occupancy O(1) for typical floor
	// plans while the cell side stays comparable to a wall length.
	k := int(math.Ceil(math.Sqrt(float64(2 * len(walls)))))
	if k < 1 {
		k = 1
	}
	if k > gridMaxCellsPerAxis {
		k = gridMaxCellsPerAxis
	}
	cell := maxSpan / float64(k)
	if cell <= 0 {
		cell = 1
	}
	g.ox, g.oy = minX, minY
	g.cell = cell
	g.inv = 1 / cell
	g.nx = int(spanX*g.inv) + 1
	g.ny = int(spanY*g.inv) + 1
	n := g.nx * g.ny
	if cap(g.cells) < n {
		g.cells = make([][]int32, n)
	} else {
		g.cells = g.cells[:n]
		for i := range g.cells {
			g.cells[i] = g.cells[i][:0]
		}
	}
	if cap(g.seen) < g.nWalls {
		g.seen = make([]uint64, g.nWalls)
		g.gen = 0
	} else {
		g.seen = g.seen[:g.nWalls]
	}
	for i, w := range walls {
		g.cellScratch = g.appendCells(g.cellScratch[:0], w.Segment)
		for _, ci := range g.cellScratch {
			g.cells[ci] = append(g.cells[ci], int32(i))
		}
	}
}

// appendCells rasterizes the segment conservatively: for each cell
// column the segment's x-range touches, the y-interval the segment spans
// within that column (expanded by a small epsilon) selects the rows.
// Every cell containing a point of the segment is emitted; cells are
// distinct. Shared by rebuild and queries, which is what makes
// the wall/query cell sets provably overlap at intersection points.
func (g *Grid) appendCells(dst []int32, s Segment) []int32 {
	if g.nx == 0 || g.ny == 0 {
		return dst
	}
	eps := g.cell * 1e-6
	ax, ay := s.A.X, s.A.Y
	bx, by := s.B.X, s.B.Y
	if ax > bx {
		ax, bx, ay, by = bx, ax, by, ay
	}
	ix0 := g.clampX(int(math.Floor((ax - eps - g.ox) * g.inv)))
	ix1 := g.clampX(int(math.Floor((bx + eps - g.ox) * g.inv)))
	dx := bx - ax
	// Hoist the per-column divisions: the parameter map is t = (x-ax)/dx,
	// and the eps expansion below dwarfs the reciprocal's rounding, so the
	// emitted cell set stays a conservative cover of the segment.
	var invDx, dy float64
	if dx > eps {
		invDx = 1 / dx
		dy = by - ay
	}
	for ix := ix0; ix <= ix1; ix++ {
		// Clip the segment's x-range to this column (plus margin), then
		// map the clipped endpoints to y via the segment's parameter.
		var y0, y1 float64
		if dx > eps {
			cx0 := g.ox + float64(ix)*g.cell - eps
			cx1 := cx0 + g.cell + 2*eps
			x0 := math.Max(cx0, ax)
			x1 := math.Min(cx1, bx)
			t0 := clamp01((x0 - ax) * invDx)
			t1 := clamp01((x1 - ax) * invDx)
			y0 = ay + t0*dy
			y1 = ay + t1*dy
		} else {
			y0, y1 = ay, by
		}
		if y0 > y1 {
			y0, y1 = y1, y0
		}
		iy0 := g.clampY(int(math.Floor((y0 - eps - g.oy) * g.inv)))
		iy1 := g.clampY(int(math.Floor((y1 + eps - g.oy) * g.inv)))
		for iy := iy0; iy <= iy1; iy++ {
			dst = append(dst, int32(iy*g.nx+ix))
		}
	}
	return dst
}

func clamp01(t float64) float64 {
	if t < 0 {
		return 0
	}
	if t > 1 {
		return 1
	}
	return t
}

func (g *Grid) clampX(i int) int {
	if i < 0 {
		return 0
	}
	if i >= g.nx {
		return g.nx - 1
	}
	return i
}

func (g *Grid) clampY(i int) int {
	if i < 0 {
		return 0
	}
	if i >= g.ny {
		return g.ny - 1
	}
	return i
}

// AppendSegmentWalls appends the indices of every wall whose cells the
// segment a→b visits (a superset of the walls the segment intersects),
// deduplicated, in arbitrary order. The caller must have Synced the grid
// against its room. Steady state allocates nothing once dst and the
// internal scratch have grown to their working sizes.
func (g *Grid) AppendSegmentWalls(dst []int32, a, b Vec2) []int32 {
	if !g.built || g.nWalls == 0 {
		return dst
	}
	g.gen++
	g.cellScratch = g.appendCells(g.cellScratch[:0], Seg(a, b))
	for _, ci := range g.cellScratch {
		for _, wi := range g.cells[ci] {
			if g.seen[wi] != g.gen {
				g.seen[wi] = g.gen
				dst = append(dst, wi)
			}
		}
	}
	return dst
}
