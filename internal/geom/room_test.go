package geom

import "testing"

func TestRoomEpochAdvancesOnMutation(t *testing.T) {
	r := Box(0, 0, 4, 3, "brick")
	e0 := r.Epoch()
	if e0 == 0 {
		t.Fatal("Box construction should have advanced the epoch past zero")
	}
	r.AddWall(V(1, 1), V(2, 1), "glass")
	if r.Epoch() != e0+1 {
		t.Errorf("AddWall: epoch %d, want %d", r.Epoch(), e0+1)
	}
	r.AddObstacle(V(0, 0), V(0, 1), "human")
	if r.Epoch() != e0+2 {
		t.Errorf("AddObstacle: epoch %d, want %d", r.Epoch(), e0+2)
	}
	r.MoveWall(0, Seg(V(0, 0.5), V(4, 0.5)))
	if r.Epoch() != e0+3 {
		t.Errorf("MoveWall: epoch %d, want %d", r.Epoch(), e0+3)
	}
}

func TestMovesSinceCompleteLog(t *testing.T) {
	r := Open()
	r.AddObstacle(V(1, -1), V(1, 1), "human")
	snap := r.Epoch()
	old := r.Walls[0].Segment
	next := Seg(V(1.5, -1), V(1.5, 1))
	r.MoveWall(0, next)
	moves, complete := r.MovesSince(snap)
	if !complete {
		t.Fatal("a pure-move history must report complete")
	}
	if len(moves) != 1 || moves[0].Index != 0 || moves[0].Old != old || moves[0].New != next {
		t.Fatalf("moves = %+v", moves)
	}
	if r.Walls[0].Segment != next {
		t.Error("MoveWall did not update the wall segment")
	}
	// A fresh snapshot sees nothing.
	if moves, complete := r.MovesSince(r.Epoch()); len(moves) != 0 || !complete {
		t.Errorf("up-to-date snapshot: moves=%v complete=%v", moves, complete)
	}
}

func TestMovesSinceStructuralEditIncomplete(t *testing.T) {
	r := Open()
	r.AddObstacle(V(1, -1), V(1, 1), "human")
	snap := r.Epoch()
	r.MoveWall(0, Seg(V(1.2, -1), V(1.2, 1)))
	r.AddWall(V(0, 2), V(3, 2), "glass") // structural: not logged
	if _, complete := r.MovesSince(snap); complete {
		t.Error("structural edit must make the move log incomplete")
	}
}

func TestMovesSinceTrimmedLogIncomplete(t *testing.T) {
	r := Open()
	r.AddObstacle(V(1, -1), V(1, 1), "human")
	snap := r.Epoch()
	for i := 0; i < maxMoveLog+10; i++ {
		r.MoveWall(0, Seg(V(1+float64(i)*0.01, -1), V(1+float64(i)*0.01, 1)))
	}
	if _, complete := r.MovesSince(snap); complete {
		t.Error("a snapshot older than the trimmed log must read incomplete")
	}
	// A snapshot inside the retained window still resolves selectively.
	recent := r.Epoch() - 3
	moves, complete := r.MovesSince(recent)
	if !complete || len(moves) != 3 {
		t.Errorf("recent snapshot: %d moves, complete=%v", len(moves), complete)
	}
}

// Across many compactions the log keeps exactly the last maxMoveLog
// moves: every snapshot within them resolves to the moves made since,
// in order, and every older one reads incomplete.
func TestMovesSinceAcrossCompactions(t *testing.T) {
	r := Open()
	r.AddObstacle(V(1, -1), V(1, 1), "human")
	var all []WallMove
	for i := 0; i < 5*maxMoveLog+7; i++ {
		x := 1 + float64(i)*0.01
		r.MoveWall(0, Seg(V(x, -1), V(x, 1)))
		all = append(all, WallMove{Epoch: r.Epoch(), Index: 0, New: r.Walls[0].Segment})
		for back := uint64(0); back <= maxMoveLog+1; back++ {
			if back > r.Epoch() {
				break
			}
			moves, complete := r.MovesSince(r.Epoch() - back)
			// Further back than the first move lies the structural
			// AddObstacle, which is never logged.
			if want := back <= maxMoveLog && int(back) <= len(all); complete != want {
				t.Fatalf("after %d moves, %d back: complete=%v, want %v", i+1, back, complete, want)
			}
			if !complete {
				continue
			}
			tail := all[len(all)-int(back):]
			for k, m := range moves {
				if m.Epoch != tail[k].Epoch || m.New != tail[k].New {
					t.Fatalf("after %d moves, %d back: move %d is %+v, want %+v", i+1, back, k, m, tail[k])
				}
			}
		}
	}
}

func TestMovesSinceFutureEpoch(t *testing.T) {
	r := Open()
	if _, complete := r.MovesSince(99); complete {
		t.Error("an epoch from the future must read incomplete")
	}
}
