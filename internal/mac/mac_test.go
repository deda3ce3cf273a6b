package mac

import (
	"math"
	"testing"
	"testing/quick"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/sim"
)

func TestQueuePushPop(t *testing.T) {
	q := NewQueue(3)
	for i := 0; i < 3; i++ {
		if !q.Push(MPDU{Bytes: 100 * (i + 1)}) {
			t.Fatalf("push %d rejected", i)
		}
	}
	if q.Push(MPDU{Bytes: 1}) {
		t.Error("overflow accepted")
	}
	if q.Dropped != 1 {
		t.Errorf("Dropped = %d", q.Dropped)
	}
	if q.Len() != 3 || q.Bytes() != 600 {
		t.Errorf("Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	q.Pop(2)
	if q.Len() != 1 || q.Bytes() != 300 {
		t.Errorf("after Pop: Len=%d Bytes=%d", q.Len(), q.Bytes())
	}
	q.Pop(5) // over-pop is safe
	if q.Len() != 0 {
		t.Errorf("Len = %d", q.Len())
	}
}

func TestQueuePeek(t *testing.T) {
	q := NewQueue(10)
	for i := 0; i < 5; i++ {
		q.Push(MPDU{Bytes: 1000})
	}
	if got := len(q.Peek(3)); got != 3 {
		t.Errorf("Peek(3) = %d", got)
	}
	if got := len(q.Peek(99)); got != 5 {
		t.Errorf("Peek(99) = %d", got)
	}
}

func TestPeekAir(t *testing.T) {
	q := NewQueue(10)
	for _, b := range []int{1000, 1000, 1000, 500} {
		q.Push(MPDU{Bytes: b})
	}
	// Budget for 2.5 MPDUs: exactly 2 fit beyond the first.
	got := q.PeekAir(2500)
	if len(got) != 2 || got[0].Bytes+got[1].Bytes != 2000 {
		t.Errorf("PeekAir(2500) = %d MPDUs", len(got))
	}
	// A budget smaller than the head still returns one MPDU (a frame
	// always carries at least one).
	if got := q.PeekAir(10); len(got) != 1 {
		t.Errorf("PeekAir(10) = %d", len(got))
	}
	// Empty queue.
	q.Clear()
	if q.PeekAir(5000) != nil {
		t.Error("PeekAir on empty queue")
	}
}

func TestPeekAirProperty(t *testing.T) {
	f := func(sizes []uint16, budget uint16) bool {
		q := NewQueue(len(sizes) + 1)
		for _, s := range sizes {
			q.Push(MPDU{Bytes: int(s%3000) + 1})
		}
		got := q.PeekAir(int(budget))
		if q.Len() == 0 {
			return got == nil
		}
		if len(got) < 1 {
			return false
		}
		total := 0
		for _, m := range got {
			total += m.Bytes
		}
		// Invariant: either a single MPDU, or the total fits the budget.
		return len(got) == 1 || total <= int(budget)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestSelectSectorPointsAtPeer(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 61)
	med.FadingSigmaDB = 0
	med.Budget.ShadowingSigmaDB = 0
	dev := med.AddRadio(&sim.Radio{Name: "dev", Pos: geom.V(0, 0)})
	peer := med.AddRadio(&sim.Radio{Name: "peer", Pos: geom.V(3, 3)})
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 61)
	before := med.RxPowerDBm(dev, peer)
	// Device mounted at 0°: the peer sits at +45°.
	idx, p := SelectSector(med, dev, peer, OrientCodebook(cb, 0))
	if idx < 0 {
		t.Fatal("no sector")
	}
	if math.Abs(cb.Sectors[idx].SteerDeg-45) > 10 {
		t.Errorf("selected sector steers %.0f°, want ≈45°", cb.Sectors[idx].SteerDeg)
	}
	if math.IsInf(p, -1) {
		t.Error("no power measured")
	}
	// The batched sweep is a pure query: neither radio's mounted
	// pattern is touched.
	if after := med.RxPowerDBm(dev, peer); after != before {
		t.Errorf("probe mutated radio patterns: isotropic link %v dBm became %v", before, after)
	}
}

func TestSelectSectorRespectsBoresight(t *testing.T) {
	s := sim.NewScheduler()
	med := sim.NewMedium(s, geom.Open(), rf.FreqChannel2Hz, rf.DefaultBudget(), 62)
	med.FadingSigmaDB = 0
	med.Budget.ShadowingSigmaDB = 0
	dev := med.AddRadio(&sim.Radio{Name: "dev", Pos: geom.V(0, 0)})
	peer := med.AddRadio(&sim.Radio{Name: "peer", Pos: geom.V(3, 0)})
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 62)
	// Mounted rotated 60°: the peer is at -60° local.
	idx, _ := SelectSector(med, dev, peer, OrientCodebook(cb, geom.Rad(60)))
	if cb.Sectors[idx].SteerDeg > -40 {
		t.Errorf("rotated mount picked %.0f°, want near -60°", cb.Sectors[idx].SteerDeg)
	}
}

// The oriented codebook's accessors mount each codeword at the
// boresight, and quasi-omni indices wrap modulo the codebook size.
func TestOrientHelpers(t *testing.T) {
	_, cb := antenna.D5000Codebook(rf.FreqChannel2Hz, 63)
	oc := OrientCodebook(cb, math.Pi/2)
	for _, th := range []float64{-2, 0, math.Pi / 2, 2.5} {
		if got, want := oc.Sector(3)(th), cb.Sectors[3].Pattern.GainDBi(th-math.Pi/2); got != want {
			t.Errorf("sector 3 at %v: %v, pattern %v", th, got, want)
		}
		n := len(cb.QuasiOmni)
		if got, want := oc.QuasiOmni(n+5)(th), cb.QuasiOmni[5].GainDBi(th-math.Pi/2); got != want {
			t.Errorf("quasi-omni %d at %v: %v, codeword 5 %v", n+5, th, got, want)
		}
	}
	if got := Towards(geom.V(0, 0), geom.V(0, 5)); math.Abs(got-math.Pi/2) > 1e-12 {
		t.Errorf("Towards = %v", got)
	}
}

func TestStatsZeroValue(t *testing.T) {
	var st Stats
	if st.FramesSent != 0 || st.TxAirTime != 0 {
		t.Error("zero value not zero")
	}
}
