package rf

import "repro/internal/geom"

// Retained brute-force reference implementation of the image-method
// tracer. This is the original pre-index algorithm, kept verbatim: every
// leg scans every wall, second order enumerates all W² mirror pairs, and
// skip sets are maps. The spatial index (tracer.go) is required to return
// byte-identical path sets; the equivalence and metamorphic suites use
// this implementation as the oracle, selected via Tracer.Naive.

// legLossNaive accumulates penetration losses of walls crossed by the
// open segment from a to b, skipping the walls indexed in skip (the
// mirrors a reflected path legitimately touches). It reports
// blocked=true when a Blocking wall is crossed.
func (t *Tracer) legLossNaive(a, b geom.Vec2, skip map[int]bool) (lossDB float64, blocked bool) {
	seg := geom.Seg(a, b)
	for i, w := range t.Room.Walls {
		if skip[i] {
			continue
		}
		if _, _, ok := seg.IntersectInterior(w.Segment, blockEps); !ok {
			continue
		}
		if w.Blocking {
			return 0, true
		}
		lossDB += t.wallMats[i].PenetrationLossDB
	}
	return lossDB, false
}

func (t *Tracer) finishPath(points []geom.Vec2, extraLossDB float64, order int) Path {
	length := 0.0
	for i := 1; i < len(points); i++ {
		length += points[i-1].Dist(points[i])
	}
	loss := FSPLdB(length, t.FreqHz) + AtmosphericLossDB(length, t.FreqHz) + extraLossDB
	aod := points[1].Sub(points[0]).Angle()
	n := len(points)
	aoa := points[n-2].Sub(points[n-1]).Angle()
	return Path{
		Points: points,
		LossDB: loss,
		AoD:    aod,
		AoA:    aoa,
		Length: length,
		Order:  order,
	}
}

// traceNaive is the brute-force Trace, appending onto dst.
func (t *Tracer) traceNaive(dst []Path, tx, rx geom.Vec2) ([]Path, error) {
	if err := t.syncMaterials(); err != nil {
		return dst, &GeometryError{Tx: tx, Rx: rx, Err: err}
	}
	keep := func(p Path) {
		if t.MaxLossDB > 0 && p.LossDB > t.MaxLossDB {
			return
		}
		dst = append(dst, p)
	}

	// Line of sight.
	if tx.Dist(rx) > 0 {
		if loss, blocked := t.legLossNaive(tx, rx, nil); !blocked {
			keep(t.finishPath([]geom.Vec2{tx, rx}, loss, 0))
		}
	}

	if t.MaxOrder >= 1 {
		t.traceFirstOrderNaive(tx, rx, keep)
	}
	if t.MaxOrder >= 2 {
		t.traceSecondOrderNaive(tx, rx, keep)
	}
	return dst, nil
}

func (t *Tracer) traceFirstOrderNaive(tx, rx geom.Vec2, keep func(Path)) {
	for i, w := range t.Room.Walls {
		// A specular bounce requires both endpoints on the same side of
		// the mirror wall.
		if !w.SameSide(tx, rx) {
			continue
		}
		img := w.Mirror(tx)
		_, u, ok := geom.Seg(img, rx).Intersect(w.Segment)
		if !ok || u <= 0 || u >= 1 {
			continue
		}
		p := w.Point(u)
		skip := map[int]bool{i: true}
		l1, b1 := t.legLossNaive(tx, p, skip)
		l2, b2 := t.legLossNaive(p, rx, skip)
		if b1 || b2 {
			continue
		}
		rl := t.reflectionLoss(i, tx, p)
		keep(t.finishPath([]geom.Vec2{tx, p, rx}, l1+l2+rl, 1))
	}
}

func (t *Tracer) traceSecondOrderNaive(tx, rx geom.Vec2, keep func(Path)) {
	walls := t.Room.Walls
	for i, w1 := range walls {
		img1 := w1.Mirror(tx)
		for j, w2 := range walls {
			if i == j {
				continue
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
			// must lie on the same side of the mirror wall (tx and p2
			// straddle w1's plane only for a non-physical solution, and
			// likewise p1/rx for w2).
			if !w1.SameSide(tx, p2) || !w2.SameSide(p1, rx) {
				continue
			}
			skip := map[int]bool{i: true, j: true}
			l1, b1 := t.legLossNaive(tx, p1, skip)
			l2, b2 := t.legLossNaive(p1, p2, skip)
			l3, b3 := t.legLossNaive(p2, rx, skip)
			if b1 || b2 || b3 {
				continue
			}
			rl1 := t.reflectionLoss(i, tx, p1)
			rl2 := t.reflectionLoss(j, p1, p2)
			keep(t.finishPath([]geom.Vec2{tx, p1, p2, rx}, l1+l2+l3+rl1+rl2, 2))
		}
	}
}

// pairAffectedNaive is the brute-force PairAffected: the O((W+m)²)
// enumeration over the extended wall set (current walls plus one phantom
// per move holding the old segment), every touching candidate judged by
// the shared survivesUnmoved rule over full-scan leg walks.
func (t *Tracer) pairAffectedNaive(tx, rx geom.Vec2, moves []geom.WallMove) bool {
	if err := t.syncMaterials(); err != nil {
		return true
	}
	movedIdx := make(map[int]bool, len(moves))
	segs := make([]geom.Segment, 0, 2*len(moves))
	for _, m := range moves {
		movedIdx[m.Index] = true
		segs = append(segs, m.Old, m.New)
	}
	type extWall struct {
		seg   geom.Segment
		idx   int
		moved bool
	}
	ext := make([]extWall, 0, len(t.Room.Walls)+len(moves))
	for i, w := range t.Room.Walls {
		ext = append(ext, extWall{seg: w.Segment, idx: i, moved: movedIdx[i]})
	}
	for _, m := range moves {
		ext = append(ext, extWall{seg: m.Old, idx: m.Index, moved: true})
	}

	legTouches := func(a, b geom.Vec2) bool {
		leg := geom.Seg(a, b)
		for _, s := range segs {
			if _, _, ok := leg.IntersectInterior(s, blockEps); ok {
				return true
			}
		}
		return false
	}
	// survives skips every moved wall and the candidate's mirrors i, j.
	survives := func(i, j int, pts ...geom.Vec2) bool {
		skip := map[int]bool{i: true, j: true}
		for k := range movedIdx {
			skip[k] = true
		}
		return t.survivesUnmoved(pts, func(a, b geom.Vec2) (float64, bool) {
			return t.legLossNaive(a, b, skip)
		})
	}

	// Line of sight.
	if legTouches(tx, rx) && survives(-1, -1, tx, rx) {
		return true
	}
	if t.MaxOrder < 1 {
		return false
	}
	// First-order candidates.
	for _, w := range ext {
		if !w.seg.SameSide(tx, rx) {
			continue
		}
		img := w.seg.Mirror(tx)
		_, u, ok := geom.Seg(img, rx).Intersect(w.seg)
		if !ok || u <= 0 || u >= 1 {
			continue
		}
		p := w.seg.Point(u)
		if (w.moved || legTouches(tx, p) || legTouches(p, rx)) && survives(w.idx, -1, tx, p, rx) {
			return true
		}
	}
	if t.MaxOrder < 2 {
		return false
	}
	// Second-order candidates.
	for i, w1 := range ext {
		img1 := w1.seg.Mirror(tx)
		for j, w2 := range ext {
			if i == j {
				continue
			}
			img2 := w2.seg.Mirror(img1)
			_, u2, ok := geom.Seg(img2, rx).Intersect(w2.seg)
			if !ok || u2 <= 0 || u2 >= 1 {
				continue
			}
			p2 := w2.seg.Point(u2)
			_, u1, ok := geom.Seg(img1, p2).Intersect(w1.seg)
			if !ok || u1 <= 0 || u1 >= 1 {
				continue
			}
			p1 := w1.seg.Point(u1)
			if !w1.seg.SameSide(tx, p2) || !w2.seg.SameSide(p1, rx) {
				continue
			}
			if (w1.moved || w2.moved ||
				legTouches(tx, p1) || legTouches(p1, p2) || legTouches(p2, rx)) &&
				survives(w1.idx, w2.idx, tx, p1, p2, rx) {
				return true
			}
		}
	}
	return false
}
