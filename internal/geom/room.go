package geom

// Wall is a segment tagged with the name of its surface material. The
// material name is resolved against the material registry by the
// propagation engine; keeping walls as plain data avoids an import cycle
// between geometry and materials.
type Wall struct {
	Segment
	Material string
	// Blocking marks walls/obstacles that occlude the direct path
	// entirely (e.g. the shielding elements in the paper's Fig. 7 setup).
	// Non-blocking walls still reflect but also attenuate paths crossing
	// them by the material's penetration loss.
	Blocking bool
}

// Room is a collection of walls and free-standing obstacles describing a
// measurement environment, e.g. the 9 m × 3.25 m conference room of the
// paper's reflection study (Fig. 4).
//
// Rooms carry a mutation epoch so channel caches built over the geometry
// can detect changes without being told: structural edits (AddWall,
// AddObstacle) advance the epoch anonymously, while MoveWall also logs
// the old and new segments, letting caches invalidate only the paths a
// moving obstacle can actually touch instead of re-tracing every pair.
type Room struct {
	Walls []Wall

	// epoch counts mutations since construction. Zero means pristine.
	epoch uint64
	// moves[moveHead:] logs recent MoveWall edits (newest last).
	// Structural edits are not logged, so a cache comparing
	// len(moves-since) against the epoch delta detects them and falls
	// back to a full rebuild. The dead prefix is compacted away once it
	// is as long as the log, so a walking obstacle reuses one backing
	// array instead of sliding off its end.
	moves    []WallMove
	moveHead int
}

// WallMove records one MoveWall edit for selective cache invalidation.
type WallMove struct {
	// Epoch is the room epoch after this move was applied.
	Epoch uint64
	// Index is the moved wall's position in Walls.
	Index int
	// Old and New are the wall's segment before and after the move.
	Old, New Segment
}

// maxMoveLog bounds the move log; caches that fall further behind than
// this rebuild wholesale (MovesSince reports incomplete).
const maxMoveLog = 64

// Epoch returns the room's mutation counter. Caches snapshot it and
// compare on later queries to detect geometry changes.
func (r *Room) Epoch() uint64 { return r.epoch }

// MoveWall relocates wall i, advancing the epoch and logging the edit so
// channel caches can invalidate selectively. This is the supported way
// to animate an obstacle (e.g. the blockage walker crossing a link);
// mutating Walls[i].Segment directly leaves caches stale.
func (r *Room) MoveWall(i int, s Segment) {
	old := r.Walls[i].Segment
	r.Walls[i].Segment = s
	r.epoch++
	r.moves = append(r.moves, WallMove{Epoch: r.epoch, Index: i, Old: old, New: s})
	if len(r.moves)-r.moveHead > maxMoveLog {
		r.moveHead++
	}
	if r.moveHead == maxMoveLog {
		r.moves = r.moves[:copy(r.moves, r.moves[r.moveHead:])]
		r.moveHead = 0
	}
}

// MovesSince returns the logged moves applied after the given epoch,
// oldest first. complete reports whether the returned moves account for
// every mutation since then; false means structural edits happened or
// the log was trimmed, and the caller must rebuild its cache entirely.
func (r *Room) MovesSince(epoch uint64) (moves []WallMove, complete bool) {
	return r.AppendMovesSince(nil, epoch)
}

// AppendMovesSince is MovesSince appending onto dst, so steady-state
// callers (the medium's channel cache) can reuse a scratch slice instead
// of allocating per room mutation.
func (r *Room) AppendMovesSince(dst []WallMove, epoch uint64) (moves []WallMove, complete bool) {
	if epoch > r.epoch {
		return dst, false
	}
	n := len(dst)
	for _, m := range r.moves[r.moveHead:] {
		if m.Epoch > epoch {
			dst = append(dst, m)
		}
	}
	return dst, uint64(len(dst)-n) == r.epoch-epoch
}

// AddWall appends a reflecting wall made of the named material.
func (r *Room) AddWall(a, b Vec2, material string) {
	r.Walls = append(r.Walls, Wall{Segment: Seg(a, b), Material: material})
	r.epoch++
}

// AddObstacle appends a fully blocking obstacle (e.g. the paper's
// line-of-sight blockage element or the metal shields of Fig. 7). The
// obstacle still reflects with the named material.
func (r *Room) AddObstacle(a, b Vec2, material string) {
	r.Walls = append(r.Walls, Wall{Segment: Seg(a, b), Material: material, Blocking: true})
	r.epoch++
}

// Box builds a rectangular room with the given corner points and one
// material for all four walls. The corners are (x0,y0) and (x1,y1).
func Box(x0, y0, x1, y1 float64, material string) *Room {
	r := &Room{}
	r.AddWall(V(x0, y0), V(x1, y0), material)
	r.AddWall(V(x1, y0), V(x1, y1), material)
	r.AddWall(V(x1, y1), V(x0, y1), material)
	r.AddWall(V(x0, y1), V(x0, y0), material)
	return r
}

// Open returns an empty environment (no walls): the paper's outdoor
// beam-pattern measurement rig uses a large open space precisely to avoid
// reflections.
func Open() *Room { return &Room{} }

// ConferenceRoom builds the environment of the paper's reflection analysis
// (Fig. 4): a 9 m × 3.25 m room whose long south wall is brick, the north
// wall split into wood (west half) and glass (east half), with brick end
// walls. The origin is the room's south-west corner; X runs east along the
// 9 m side.
func ConferenceRoom() *Room {
	const (
		w = 9.0
		h = 3.25
	)
	r := &Room{}
	r.AddWall(V(0, 0), V(w, 0), "brick")   // south wall
	r.AddWall(V(w, 0), V(w, h), "brick")   // east wall
	r.AddWall(V(w, h), V(w/2, h), "glass") // north-east: glass
	r.AddWall(V(w/2, h), V(0, h), "wood")  // north-west: wood
	r.AddWall(V(0, h), V(0, 0), "brick")   // west wall
	return r
}
