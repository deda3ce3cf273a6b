package mac

import (
	"math/rand/v2"
	"testing"
)

// checkQueue compares q against the reference FIFO and checks the
// representation invariants: the dead prefix is shorter than the live
// tail after every Pop (or the queue sits at the array start), and no
// slot outside the live range keeps a delivery callback alive.
func checkQueue(t *testing.T, step int, q *Queue, ref []MPDU, dropped int) {
	t.Helper()
	if q.Len() != len(ref) || q.Dropped != dropped {
		t.Fatalf("step %d: Len=%d Dropped=%d, want %d/%d", step, q.Len(), q.Dropped, len(ref), dropped)
	}
	bytes := 0
	for _, m := range ref {
		bytes += m.Bytes
	}
	if q.Bytes() != bytes {
		t.Fatalf("step %d: Bytes=%d, want %d", step, q.Bytes(), bytes)
	}
	live := q.Peek(q.Len() + 1)
	for i := range ref {
		if live[i].Arg != ref[i].Arg || live[i].Bytes != ref[i].Bytes {
			t.Fatalf("step %d: slot %d holds %+v, want %+v", step, i, live[i], ref[i])
		}
	}
	if q.head > 0 && q.head >= q.Len() {
		t.Fatalf("step %d: dead prefix %d not shorter than live tail %d", step, q.head, q.Len())
	}
	all := q.items[:cap(q.items)]
	for i := range all {
		if (i < q.head || i >= len(q.items)) && (all[i].OnDeliver != nil || all[i].Bytes != 0) {
			t.Fatalf("step %d: dead slot %d still holds %+v", step, i, all[i])
		}
	}
}

// TestQueueMatchesReferenceFIFO drives seeded random Push/PeekAir/Pop/
// Clear sequences against a plain slice FIFO. Pop sizes are biased to
// land on the compaction boundary (dead prefix equal to the live tail)
// and just either side of it, and limits are small enough that Push
// regularly hits the bound. A PeekAir slice must keep its contents
// through any number of Pushes until the next Pop.
func TestQueueMatchesReferenceFIFO(t *testing.T) {
	noop := func(int64) {}
	for seed := uint64(1); seed <= 60; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x51))
		limit := 1 + rng.IntN(40)
		q := NewQueue(limit)
		var ref []MPDU
		dropped := 0
		next := int64(0)
		var peeked, peekedWant []MPDU
		compactions := 0
		for step := 0; step < 3000; step++ {
			switch op := rng.IntN(100); {
			case op < 50:
				m := MPDU{Bytes: 1 + rng.IntN(3000), OnDeliver: noop, Arg: next}
				next++
				ok := q.Push(m)
				if full := len(ref) >= limit; ok == full {
					t.Fatalf("seed %d step %d: Push=%v with %d/%d queued", seed, step, ok, len(ref), limit)
				}
				if ok {
					ref = append(ref, m)
				} else {
					dropped++
				}
			case op < 70:
				budget := rng.IntN(12000)
				got := q.PeekAir(budget)
				n, total := 0, 0
				for _, m := range ref {
					if n > 0 && total+m.Bytes > budget {
						break
					}
					total += m.Bytes
					n++
				}
				if len(got) != n || (n == 0 && got != nil) {
					t.Fatalf("seed %d step %d: PeekAir(%d) = %d MPDUs, want %d", seed, step, budget, len(got), n)
				}
				peeked, peekedWant = got, append([]MPDU(nil), got...)
			case op < 97:
				live := len(ref)
				var n int
				switch rng.IntN(4) {
				case 0:
					n = rng.IntN(live + 3)
				default:
					// Around the boundary, where the dead prefix
					// head+n first reaches the live tail live-n.
					n = (live-q.head)/2 + rng.IntN(3) - 1
					if n < 0 {
						n = 0
					}
				}
				for i := range peeked {
					if peeked[i].Arg != peekedWant[i].Arg || peeked[i].Bytes != peekedWant[i].Bytes {
						t.Fatalf("seed %d step %d: PeekAir slot %d changed before Pop", seed, step, i)
					}
				}
				peeked, peekedWant = nil, nil
				headBefore := q.head
				q.Pop(n)
				if n > live {
					n = live
				}
				ref = ref[n:]
				if q.head == 0 && headBefore+n > 0 && len(ref) > 0 {
					compactions++
				}
			default:
				q.Clear()
				ref = ref[:0]
				peeked, peekedWant = nil, nil
			}
			checkQueue(t, step, q, ref, dropped)
		}
		// A one-slot queue drains on every Pop; any larger one must have
		// shifted a non-empty tail down at least once.
		if limit > 1 && compactions == 0 {
			t.Fatalf("seed %d (limit %d): no compaction of a non-empty tail exercised", seed, limit)
		}
	}
}

// TestQueueCompactionBoundary pins the rule at its edges: the tail moves
// down exactly when the dead prefix reaches the live tail's length.
func TestQueueCompactionBoundary(t *testing.T) {
	for _, tc := range []struct {
		push, pop, wantHead int
	}{
		{4, 1, 1}, // dead 1 < live 3
		{4, 2, 0}, // dead 2 == live 2: compact
		{5, 2, 2}, // dead 2 < live 3
		{5, 3, 0}, // dead 3 > live 2: compact
		{3, 3, 0}, // drained
	} {
		q := NewQueue(16)
		for i := 0; i < tc.push; i++ {
			q.Push(MPDU{Bytes: 100, Arg: int64(i)})
		}
		q.Pop(tc.pop)
		if q.head != tc.wantHead || q.Len() != tc.push-tc.pop {
			t.Errorf("push %d pop %d: head=%d len=%d, want head %d", tc.push, tc.pop, q.head, q.Len(), tc.wantHead)
		}
		if q.Len() > 0 && q.Peek(1)[0].Arg != int64(tc.pop) {
			t.Errorf("push %d pop %d: head MPDU %d", tc.push, tc.pop, q.Peek(1)[0].Arg)
		}
	}
}

// A drained queue keeps its backing array: a steady push/aggregate/pop
// cycle allocates nothing once the array has grown.
func TestQueueSteadyStateZeroAlloc(t *testing.T) {
	q := NewQueue(1024)
	cycle := func() {
		for i := 0; i < 40; i++ {
			q.Push(MPDU{Bytes: 1500})
		}
		for q.Len() > 0 {
			q.Pop(len(q.PeekAir(16000)))
		}
	}
	cycle()
	if n := testing.AllocsPerRun(1, func() {
		for range 200 {
			cycle()
		}
	}); n != 0 {
		t.Errorf("200 push/pop cycles allocate %v times, want 0", n)
	}
}
