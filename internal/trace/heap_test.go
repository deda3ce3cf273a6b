package trace

import (
	"container/heap"
	"math/rand/v2"
	"testing"
	"time"

	"repro/internal/sniffer"
)

// oracleHeap is the container/heap form obsHeap replaced; it stays here
// as the reference for the typed sift loops.
type oracleHeap []sniffer.Observation

func (h oracleHeap) Len() int           { return len(h) }
func (h oracleHeap) Less(i, j int) bool { return h[i].Start < h[j].Start }
func (h oracleHeap) Swap(i, j int)      { h[i], h[j] = h[j], h[i] }
func (h *oracleHeap) Push(x any)        { *h = append(*h, x.(sniffer.Observation)) }
func (h *oracleHeap) Pop() any {
	old := *h
	n := len(old)
	o := old[n-1]
	*h = old[:n-1]
	return o
}

// tiedObs draws an observation whose Start comes from a handful of
// values, so most comparisons are ties; Meta numbers the observation so
// the emit order among equal starts is visible.
func tiedObs(rng *rand.Rand, id int) sniffer.Observation {
	start := time.Duration(rng.IntN(6)) * time.Microsecond
	return sniffer.Observation{Start: start, End: start + time.Duration(1+rng.IntN(30))*time.Microsecond, Meta: id}
}

// The typed heap must release observations in exactly container/heap's
// order — including among equal Start values, where a heap's order is
// an artefact of its sift sequence — over random push/pop interleavings.
func TestObsHeapMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x0b5))
		var got obsHeap
		var want oracleHeap
		id := 0
		for step := 0; step < 4000; step++ {
			if len(want) == 0 || rng.IntN(100) < 55 {
				o := tiedObs(rng, id)
				id++
				got.push(o)
				heap.Push(&want, o)
				continue
			}
			g, w := got.pop(), heap.Pop(&want).(sniffer.Observation)
			if g != w {
				t.Fatalf("seed %d step %d: pop %+v, container/heap pops %+v", seed, step, g, w)
			}
		}
		for len(want) > 0 {
			if g, w := got.pop(), heap.Pop(&want).(sniffer.Observation); g != w {
				t.Fatalf("seed %d drain: pop %+v, container/heap pops %+v", seed, g, w)
			}
		}
		if len(got) != 0 {
			t.Fatalf("seed %d: %d left after the oracle drained", seed, len(got))
		}
	}
}

// End to end: a StartOrderer over an end-ordered stream with many equal
// starts emits the same sequence as the container/heap orderer it
// replaced.
func TestStartOrdererMatchesContainerHeap(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rng := rand.New(rand.NewPCG(seed, 0x5e0))
		// End-ordered captures whose starts collide in small groups.
		var obs []sniffer.Observation
		end := time.Duration(0)
		for i := 0; i < 2000; i++ {
			end += time.Duration(rng.IntN(3)) * time.Microsecond
			start := end - time.Duration(rng.IntN(4))*5*time.Microsecond
			obs = append(obs, sniffer.Observation{Start: start, End: end, Meta: i})
		}
		horizon := 20 * time.Microsecond

		var got []sniffer.Observation
		so := NewStartOrderer(horizon, func(o sniffer.Observation) { got = append(got, o) })
		var want []sniffer.Observation
		var h oracleHeap
		maxEnd := time.Duration(0)
		for _, o := range obs {
			if err := so.Capture(o); err != nil {
				t.Fatal(err)
			}
			heap.Push(&h, o)
			if o.End > maxEnd {
				maxEnd = o.End
			}
			for h.Len() > 0 && h[0].Start <= maxEnd-horizon {
				want = append(want, heap.Pop(&h).(sniffer.Observation))
			}
		}
		so.Flush()
		for h.Len() > 0 {
			want = append(want, heap.Pop(&h).(sniffer.Observation))
		}
		if len(got) != len(want) {
			t.Fatalf("seed %d: emitted %d, oracle %d", seed, len(got), len(want))
		}
		for i := range want {
			if got[i] != want[i] {
				t.Fatalf("seed %d: emit %d is #%d, oracle emits #%d", seed, i, got[i].Meta, want[i].Meta)
			}
		}
	}
}

// Capturing through a warmed orderer allocates nothing: observations
// are stored by value in the typed heap, never boxed.
func TestStartOrdererZeroAlloc(t *testing.T) {
	n := 0
	so := NewStartOrderer(10*time.Microsecond, func(sniffer.Observation) { n++ })
	end := time.Duration(0)
	capture := func() {
		end += time.Microsecond
		_ = so.Capture(sniffer.Observation{Start: end - 15*time.Microsecond, End: end})
	}
	for i := 0; i < 100; i++ {
		capture()
	}
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			capture()
		}
	}); n != 0 {
		t.Errorf("1000 StartOrderer.Capture calls allocate %v times, want 0", n)
	}
	if n == 0 {
		t.Fatal("nothing emitted")
	}
}
