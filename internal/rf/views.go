package rf

import (
	"math"

	"repro/internal/geom"
)

// Endpoint views: PairAffected's second-order walk (walkReachable) is
// a row pass over tx's first mirrors and a column pass over rx's second
// mirrors, and the set-up of each pass depends on one endpoint and the
// move batch only. A view holds one endpoint's set-up; it is built the
// first time a call of the batch needs it and reused by every later
// call that shares the endpoint in the same role. Callers check every
// cached pair after a move (sim.Medium.syncRoom walks rx-major, the
// repository benchmark tx-major), so each endpoint's view is built once
// per batch instead of once per pair.
//
// Which mirror pairs a move can reach follows from mirroring a leg
// across its bounce wall, which turns each way of touching a moved
// segment s into a wedge the other bounce point must lie in:
//
//   - the first leg, tx to p1 on wall i, crosses s only if wall i meets
//     the shadow of s seen from tx, and then p2 lies in the shadow of
//     s's mirror image across wall i seen from img1 (tx's image);
//   - the middle leg crosses s only if p2 lies in the shadow of s seen
//     from img1;
//   - the last leg, p2 on wall j to rx, crosses s only if wall j meets
//     the shadow of s seen from rx, and then p1 lies in the shadow of
//     s's mirror image across wall j seen from rx's image.
//
// A tx view holds, per wall i, tx's image across it and the blocks of
// second mirrors row i walks: every block meeting its image cone for a
// moved wall, else the blocks meeting the cone and one of its first- or
// middle-leg wedges (none if it has no wedge or tx lies on the wall's
// line). An rx view holds, for each moved wall j and each wall j meeting
// a last-leg shadow, the blocks of first mirrors that meet its wedges
// (all of them for a moved wall) inside its reverse image cone, where p1
// lies, seen from rx's image. The side crosses are not kept: a call
// recomputes them (sideCrosses), a product per wall and endpoint.
//
// The key is everything a view is computed from besides its endpoint:
// the room, its epoch and wall count (the walls and the block boxes) and
// the moves, compared bit for bit because callers pass reused slices.
// Endpoints are keyed by their bits as well. A view is therefore exactly
// the set-up the call would compute itself, and the walk over it visits
// the same pairs in the same order: reuse cannot change a result.

// maxEndpointViews bounds the views of one role kept for a batch; a
// caller querying more distinct endpoints restarts the batch's views,
// so memory stays bounded whatever the query pattern.
const maxEndpointViews = 128

// pairViews is the batch key and the pooled view storage. Views are
// numbered in build order per role; tx view k owns rows[k·W:(k+1)·W]
// for W walls and rx view k owns cols[rxCols[k]:rxCols[k+1]]. Rows and
// columns index their reached blocks in blocks. A new batch resets the
// maps and slabs to empty, keeping their storage.
type pairViews struct {
	room  *geom.Room
	epoch uint64
	walls int
	moves []geom.WallMove

	tx, rx map[endpointKey]int32
	rows   []viewRow
	rxCols []int32
	cols   []viewCol
	blocks []int32

	// built and reused count the views built and the lookups that found
	// one: the work gate of TestOfficeWalkRetraces.
	built, reused int
}

// viewRow is first mirror i's share of a tx view: tx's image across
// wall i and the row's reached blocks, blocks[lo:hi].
type viewRow struct {
	img    geom.Vec2
	lo, hi int32
}

// viewCol is second mirror j's share of an rx view: the blocks of
// first mirrors its column visits, blocks[lo:hi].
type viewCol struct {
	j, lo, hi int32
}

// endpointKey is a point's bit pattern: equal keys mean bit-identical
// inputs (unlike ==, which merges ±0 and never matches NaN).
type endpointKey [2]uint64

func keyOf(p geom.Vec2) endpointKey {
	return endpointKey{math.Float64bits(p.X), math.Float64bits(p.Y)}
}

// syncBatch makes moves the batch PairAffected's scratch describes. The
// same batch as the last call keeps the moved-wall stamps and the views;
// a different one restamps and drops the views.
func (t *Tracer) syncBatch(moves []geom.WallMove) {
	v := &t.views
	if v.room == t.Room && v.epoch == t.Room.Epoch() && v.walls == len(t.Room.Walls) && sameMoves(v.moves, moves) {
		return
	}
	v.room, v.epoch, v.walls = t.Room, t.Room.Epoch(), len(t.Room.Walls)
	v.moves = append(v.moves[:0], moves...)
	v.reset()
	t.paMovedCur++
	t.paSegs = t.paSegs[:0]
	t.paPhantoms = t.paPhantoms[:0]
	t.paMovedIdx = t.paMovedIdx[:0]
	for _, m := range moves {
		if m.Index >= 0 && m.Index < v.walls {
			t.paMoved[m.Index] = t.paMovedCur
			t.paMovedIdx = append(t.paMovedIdx, int32(m.Index))
		}
		t.paSegs = append(t.paSegs, m.Old, m.New)
		t.paPhantoms = append(t.paPhantoms, m.Old)
	}
}

func (v *pairViews) reset() {
	clear(v.tx)
	clear(v.rx)
	v.rows = v.rows[:0]
	v.rxCols = append(v.rxCols[:0], 0)
	v.cols = v.cols[:0]
	v.blocks = v.blocks[:0]
}

// sameMoves reports whether two move lists are bit-identical.
func sameMoves(a, b []geom.WallMove) bool {
	if len(a) != len(b) {
		return false
	}
	for k := range a {
		if a[k].Epoch != b[k].Epoch || a[k].Index != b[k].Index ||
			!sameSeg(a[k].Old, b[k].Old) || !sameSeg(a[k].New, b[k].New) {
			return false
		}
	}
	return true
}

func sameSeg(a, b geom.Segment) bool {
	return keyOf(a.A) == keyOf(b.A) && keyOf(a.B) == keyOf(b.B)
}

// endpointViews returns tx's rows and rx's columns for the current
// batch, building either view on first use. txCross/rxCross must hold
// the query's side crosses (sideCrosses).
func (t *Tracer) endpointViews(tx, rx geom.Vec2) (rows []viewRow, cols []viewCol) {
	v := &t.views
	if v.tx == nil {
		v.tx = make(map[endpointKey]int32)
		v.rx = make(map[endpointKey]int32)
	}
	if len(v.tx) >= maxEndpointViews || len(v.rx) >= maxEndpointViews {
		v.reset()
	}
	w := v.walls
	kt, ok := v.tx[keyOf(tx)]
	if ok {
		v.reused++
	} else {
		kt = int32(len(v.tx))
		v.tx[keyOf(tx)] = kt
		v.built++
		t.buildTxView(tx)
	}
	kr, ok := v.rx[keyOf(rx)]
	if ok {
		v.reused++
	} else {
		kr = int32(len(v.rx))
		v.rx[keyOf(rx)] = kr
		v.built++
		t.buildRxView(rx)
	}
	return v.rows[int(kt)*w : int(kt+1)*w], v.cols[v.rxCols[kr]:v.rxCols[kr+1]]
}

// buildTxView appends tx's rows: the set-up walkSecondOrder's rows and
// the reach wedges of the first and middle legs.
func (t *Tracer) buildTxView(tx geom.Vec2) {
	v := &t.views
	walls := t.Room.Walls
	fromTx := t.paShadows[:0]
	for _, s := range t.paSegs {
		fromTx = append(fromTx, shadow(tx, s))
	}
	t.paShadows = fromTx
	for i := range walls {
		w1 := walls[i].Segment
		r := viewRow{img: w1.Mirror(tx), lo: int32(len(v.blocks))}
		r.hi = r.lo
		// A zero cross kills the row: SameSide(tx, p2) fails for every
		// bounce point, as in walkSecondOrder.
		if cross := t.txCross[i]; cross != 0 {
			cone := newWedge(r.img, w1, farSide(cross))
			moved := t.paMoved[i] == t.paMovedCur
			reach := t.paReach[:0]
			if !moved {
				for k, s := range t.paSegs {
					if !fromTx[k].missesSeg(w1) {
						reach = append(reach, shadow(r.img, mirrorSeg(w1, s)))
					}
					if !cone.missesSeg(s) {
						reach = append(reach, shadow(r.img, s))
					}
				}
			}
			t.paReach = reach
			if moved || len(reach) > 0 {
				v.blocks = t.reachedBlocks(v.blocks, &cone, reach, moved)
				r.hi = int32(len(v.blocks))
			}
		}
		v.rows = append(v.rows, r)
	}
}

// buildRxView appends rx's columns: the walls a last leg can reach a
// move through, with the blocks of first mirrors each visits.
func (t *Tracer) buildRxView(rx geom.Vec2) {
	v := &t.views
	walls := t.Room.Walls
	fromRx := t.paShadows[:0]
	for _, s := range t.paSegs {
		fromRx = append(fromRx, shadow(rx, s))
	}
	t.paShadows = fromRx
	for j := range walls {
		w2 := walls[j].Segment
		cqRx := t.rxCross[j]
		if cqRx == 0 {
			continue // SameSide(p1, rx) fails for every p1
		}
		moved := t.paMoved[j] == t.paMovedCur
		if !moved && !meetsAny(fromRx, w2) {
			continue
		}
		rev := newWedge(w2.Mirror(rx), w2, farSide(cqRx))
		reach := t.paReach[:0]
		if !moved {
			for k, s := range t.paSegs {
				if !fromRx[k].missesSeg(w2) {
					reach = append(reach, shadow(rev.apex, mirrorSeg(w2, s)))
				}
			}
		}
		t.paReach = reach
		lo := int32(len(v.blocks))
		v.blocks = t.reachedBlocks(v.blocks, &rev, reach, moved)
		if hi := int32(len(v.blocks)); hi > lo {
			v.cols = append(v.cols, viewCol{j: int32(j), lo: lo, hi: hi})
		}
	}
	v.rxCols = append(v.rxCols, int32(len(v.cols)))
}
