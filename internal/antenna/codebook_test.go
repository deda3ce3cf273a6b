package antenna

import (
	"math"
	"testing"

	"repro/internal/geom"
	"repro/internal/rf"
)

func TestCodebookSectorCoverage(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 77)
	if len(cb.Sectors) < 16 {
		t.Fatalf("sectors = %d", len(cb.Sectors))
	}
	// Steering angles span ±70° and are sorted ascending.
	first, last := cb.Sectors[0].SteerDeg, cb.Sectors[len(cb.Sectors)-1].SteerDeg
	if first != -70 || last != 70 {
		t.Errorf("coverage = [%v, %v]", first, last)
	}
	for i := 1; i < len(cb.Sectors); i++ {
		if cb.Sectors[i].SteerDeg <= cb.Sectors[i-1].SteerDeg {
			t.Fatal("sectors not ascending")
		}
		if cb.Sectors[i].ID != i {
			t.Fatal("sector IDs not sequential")
		}
	}
	// Across the service cone there is no direction where the best
	// sector drops more than ~4 dB below the best sector peak
	// (scalloping bound) — this is what keeps trained links near their
	// budget anchor.
	peak := math.Inf(-1)
	for _, s := range cb.Sectors {
		if g := Analyze(s.Pattern, 720).PeakGainDBi; g > peak {
			peak = g
		}
	}
	for deg := -65.0; deg <= 65; deg += 2.5 {
		best := math.Inf(-1)
		for _, s := range cb.Sectors {
			if g := s.Pattern.GainDBi(geom.Rad(deg)); g > best {
				best = g
			}
		}
		if best < peak-8 {
			t.Errorf("coverage hole at %v°: best %v vs peak %v", deg, best, peak)
		}
	}
}

func TestCodebookDeterministicBySeed(t *testing.T) {
	_, a := D5000Codebook(rf.FreqChannel2Hz, 5)
	_, b := D5000Codebook(rf.FreqChannel2Hz, 5)
	_, c := D5000Codebook(rf.FreqChannel2Hz, 6)
	for i := range a.QuasiOmni {
		ga := a.QuasiOmni[i].GainDBi(0.7)
		gb := b.QuasiOmni[i].GainDBi(0.7)
		if ga != gb {
			t.Fatalf("same seed diverged at quasi-omni %d", i)
		}
	}
	same := true
	for i := range a.QuasiOmni {
		if a.QuasiOmni[i].GainDBi(0.7) != c.QuasiOmni[i].GainDBi(0.7) {
			same = false
			break
		}
	}
	if same {
		t.Error("different seeds produced identical quasi-omni sets")
	}
}

func TestBestSectorMatchesArgmax(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 9)
	for _, theta := range []float64{-1.1, -0.4, 0, 0.3, 0.9} {
		s := cb.BestSector(theta)
		for _, o := range cb.Sectors {
			if o.Pattern.GainDBi(theta) > s.Pattern.GainDBi(theta) {
				t.Fatalf("BestSector(%v) not optimal: %d beats %d", theta, o.ID, s.ID)
			}
		}
	}
}

func TestImperfectionsChangePattern(t *testing.T) {
	a := NewD5000Array(rf.FreqChannel2Hz)
	a.Steer(geom.Rad(20))
	clean := Analyze(a, 720).PeakSideLobeDB()
	b := NewD5000Array(rf.FreqChannel2Hz)
	b.ApplyImperfections(3, 2.0, 35)
	b.Steer(geom.Rad(20))
	dirty := Analyze(b, 720)
	if dirty.PeakSideLobeDB() == clean {
		t.Error("imperfections had no effect")
	}
	// Heavy errors must not destroy the main lobe entirely.
	if dirty.PeakGainDBi < 10 {
		t.Errorf("peak gain collapsed to %v", dirty.PeakGainDBi)
	}
}

func TestWiHDCodebookShape(t *testing.T) {
	arr, cb := WiHDCodebook(rf.FreqChannel2Hz, 2)
	if arr.N() != 24 {
		t.Errorf("elements = %d", arr.N())
	}
	if len(cb.Sectors) != 10 || len(cb.QuasiOmni) != 16 {
		t.Errorf("codebook = %d sectors, %d quasi-omni", len(cb.Sectors), len(cb.QuasiOmni))
	}
}

// A codebook costs a fixed number of heap objects, however many entries
// it holds: its entries share one []PhasedArray and one weight slab.
// NewCodebook makes seven objects: the entry slice, the weight slab, the
// Codebook, its sector and quasi-omni slices, and clusterByY's index and
// cluster slices. The arrays add theirs: NewURA's 2x8 makes seven (the
// struct, five element-slice growths, the weights) and NewIrregular24's
// 4x6 eight (six growths); ApplyImperfections adds the error slice.
func TestCodebookAllocs(t *testing.T) {
	cases := []struct {
		name  string
		build func()
		want  float64
	}{
		{"D5000Codebook", func() { D5000Codebook(rf.FreqChannel2Hz, 1) }, 7 + 1 + 7},
		{"WiHDCodebook", func() { WiHDCodebook(rf.FreqChannel2Hz, 1) }, 8 + 1 + 7},
		{"NewCodebook 2x8, 54 entries", func() { NewCodebook(NewD5000Array(rf.FreqChannel2Hz), 22, 70, 32, 1) }, 7 + 7},
		{"NewCodebook 2x8, 2 entries", func() { NewCodebook(NewD5000Array(rf.FreqChannel2Hz), 1, 70, 1, 1) }, 7 + 7},
	}
	for _, c := range cases {
		if got := testing.AllocsPerRun(1, c.build); got != c.want {
			t.Errorf("%s: %v allocations, want %v", c.name, got, c.want)
		}
	}
}
