package antenna

import (
	"math"
	"testing"

	"repro/internal/rf"
)

// sectorArray extracts the PhasedArray behind a codebook sector.
func sectorArray(t *testing.T, cb *Codebook, i int) *PhasedArray {
	t.Helper()
	a, ok := cb.Sectors[i].Pattern.(*PhasedArray)
	if !ok {
		t.Fatalf("sector %d pattern is %T, not *PhasedArray", i, cb.Sectors[i].Pattern)
	}
	return a
}

// Two codebooks built from the same model parameters must serve their
// hot sector gains from one process-wide table, and that table must
// still be the exact pattern (the cache changes ownership, not values).
func TestCodebookSectorLUTsShared(t *testing.T) {
	_, cb1 := D5000Codebook(rf.FreqChannel2Hz, 77)
	_, cb2 := D5000Codebook(rf.FreqChannel2Hz, 77)
	a1, a2 := sectorArray(t, cb1, 5), sectorArray(t, cb2, 5)
	if a1.lutKey == "" || a1.lutKey != a2.lutKey {
		t.Fatalf("sector fingerprints: %q vs %q", a1.lutKey, a2.lutKey)
	}
	forceLUT(t, a1)
	forceLUT(t, a2)
	if &a1.lut[0] != &a2.lut[0] {
		t.Error("identical codebook sectors built separate gain tables")
	}
	for _, theta := range []float64{-2.5, -0.3, 0, 0.42, 1.9} {
		if got, want := a1.GainDBi(theta), a1.gainExact(binCenter(theta)); math.Abs(got-want) > 1e-9 {
			t.Errorf("shared LUT wrong at θ=%v: got %v, want %v", theta, got, want)
		}
	}
}

// Quasi-omni discovery patterns share tables the same way.
func TestQuasiOmniLUTsShared(t *testing.T) {
	_, cb1 := D5000Codebook(rf.FreqChannel2Hz, 13)
	_, cb2 := D5000Codebook(rf.FreqChannel2Hz, 13)
	q1, ok1 := cb1.QuasiOmni[3].(*PhasedArray)
	q2, ok2 := cb2.QuasiOmni[3].(*PhasedArray)
	if !ok1 || !ok2 {
		t.Fatal("quasi-omni patterns are not phased arrays")
	}
	if q1.lutKey == "" || q1.lutKey != q2.lutKey {
		t.Fatalf("quasi-omni fingerprints: %q vs %q", q1.lutKey, q2.lutKey)
	}
	forceLUT(t, q1)
	forceLUT(t, q2)
	if &q1.lut[0] != &q2.lut[0] {
		t.Error("identical quasi-omni patterns built separate gain tables")
	}
}

// Different build parameters must never alias: a different seed draws
// different imperfections, so the fingerprints — and the tables behind
// them — stay apart.
func TestDifferentSeedsDistinctTables(t *testing.T) {
	_, cb1 := D5000Codebook(rf.FreqChannel2Hz, 1)
	_, cb2 := D5000Codebook(rf.FreqChannel2Hz, 2)
	a1, a2 := sectorArray(t, cb1, 8), sectorArray(t, cb2, 8)
	if a1.lutKey == a2.lutKey {
		t.Fatalf("distinct seeds share fingerprint %q", a1.lutKey)
	}
	forceLUT(t, a1)
	forceLUT(t, a2)
	if &a1.lut[0] == &a2.lut[0] {
		t.Error("distinct seeds share one gain table")
	}
}

// Mutating a pattern detaches it from the shared table: the fingerprint
// is cleared, the rebuilt private table reflects the new weights, and
// the cached entry other radios rely on is untouched.
func TestMutationDetachesFromSharedLUT(t *testing.T) {
	_, cb := D5000Codebook(rf.FreqChannel2Hz, 21)
	orig := sectorArray(t, cb, 4)
	key := orig.lutKey
	forceLUT(t, orig)
	shared := orig.lut

	clone := orig.Clone()
	if clone.lutKey != key {
		t.Fatalf("Clone dropped the fingerprint: %q", clone.lutKey)
	}
	clone.Steer(0.2)
	if clone.lutKey != "" || clone.lut != nil {
		t.Fatal("Steer must clear the fingerprint and the table")
	}
	forceLUT(t, clone)
	if &clone.lut[0] == &shared[0] {
		t.Error("re-steered clone still serves the shared table")
	}
	if got, want := clone.GainDBi(0.2), clone.gainExact(binCenter(0.2)); math.Abs(got-want) > 1e-9 {
		t.Errorf("rebuilt private LUT wrong: got %v, want %v", got, want)
	}

	// The shared entry survives for everyone else.
	v, ok := lutCache.load(key)
	if !ok {
		t.Fatal("shared cache entry vanished after a clone mutated")
	}
	if &v[0] != &shared[0] {
		t.Error("shared cache entry was replaced")
	}
}
