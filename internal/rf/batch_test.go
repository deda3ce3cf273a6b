package rf

import (
	"math"
	"testing"

	"repro/internal/stats"
)

// randomPaths synthesizes a plausible traced channel: a strong quasi-LOS
// ray plus a handful of lossier reflections at random angles.
func randomPaths(rng *stats.RNG, n int) []Path {
	ps := make([]Path, n)
	for i := range ps {
		ps[i] = Path{
			LossDB: 60 + rng.Range(0, 60),
			AoD:    rng.Range(-math.Pi, math.Pi),
			AoA:    rng.Range(-math.Pi, math.Pi),
			Length: rng.Range(1, 20),
			Order:  i % 3,
		}
	}
	return ps
}

// randomTable builds a synthetic pattern slab with gains in [-20, 20] dBi.
func randomTable(rng *stats.RNG, bins int) *PatternTable {
	tab := &PatternTable{Lin: make([]float32, bins), MaxDB: math.Inf(-1)}
	for i := range tab.Lin {
		db := rng.Range(-20, 20)
		tab.Lin[i] = float32(DbToLin(db))
		if db > tab.MaxDB {
			tab.MaxDB = db
		}
	}
	return tab
}

// tableGainFunc is the scalar view of a synthetic table mounted at bore:
// the GainFunc a scalar-path radio would expose for the same pattern.
func tableGainFunc(tab *PatternTable, bore float64) GainFunc {
	return func(theta float64) float64 {
		return LinToDb(float64(tab.Lin[AngleBin(theta-bore, len(tab.Lin))]))
	}
}

func TestDbLinRoundTrip(t *testing.T) {
	rng := stats.NewRNG(1)
	for i := 0; i < 1000; i++ {
		db := rng.Range(-200, 50)
		want := math.Pow(10, db/10)
		got := DbToLin(db)
		if math.Abs(got-want) > 1e-12*want {
			t.Fatalf("DbToLin(%v) = %v, want %v", db, got, want)
		}
		if back := LinToDb(got); math.Abs(back-db) > 1e-9 {
			t.Fatalf("round trip %v -> %v", db, back)
		}
	}
	if DbToLin(math.Inf(-1)) != 0 {
		t.Error("DbToLin(-Inf) != 0")
	}
	if !math.IsInf(LinToDb(0), -1) {
		t.Error("LinToDb(0) != -Inf")
	}
}

// Rebuild must mirror the path list exactly: float32 of the linear loss
// weight per ray, angles copied, and the aggregate bound consistent with
// the sum. The Reversed view must equal a bundle built from the mirrored
// path list field by field.
func TestBundleRebuildParity(t *testing.T) {
	rng := stats.NewRNG(2)
	paths := randomPaths(rng, 7)
	var b RayBundle
	b.Rebuild(paths)
	if b.Len() != len(paths) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(paths))
	}
	sum := 0.0
	for i, p := range paths {
		w := DbToLin(-p.LossDB)
		sum += w
		if b.WLin[i] != float32(w) {
			t.Errorf("ray %d: WLin = %v, want %v", i, b.WLin[i], float32(w))
		}
		if b.AoD[i] != p.AoD || b.AoA[i] != p.AoA {
			t.Errorf("ray %d: angles %v/%v, want %v/%v", i, b.AoD[i], b.AoA[i], p.AoD, p.AoA)
		}
	}
	if math.Abs(b.SumDb-LinToDb(sum)) > 1e-12 {
		t.Errorf("SumDb = %v, want %v", b.SumDb, LinToDb(sum))
	}

	r := b.Reversed()
	want := rebuildMirrored(paths)
	if r.Len() != want.Len() {
		t.Fatalf("reversed Len = %d, want %d", r.Len(), want.Len())
	}
	for i := range want.WLin {
		if r.WLin[i] != want.WLin[i] {
			t.Errorf("reversed ray %d: WLin = %v, want %v", i, r.WLin[i], want.WLin[i])
		}
		if r.AoD[i] != want.AoD[i] || r.AoA[i] != want.AoA[i] {
			t.Errorf("reversed ray %d: angles %v/%v, want %v/%v", i, r.AoD[i], r.AoA[i], want.AoD[i], want.AoA[i])
		}
	}
	if r.SumDb != want.SumDb {
		t.Errorf("reversed SumDb = %v, want %v", r.SumDb, want.SumDb)
	}
}

// rebuildMirrored builds the bundle of the mirrored channel directly from
// the path list — every path's departure and arrival swapped — the way a
// reverse-direction trace would fill it.
func rebuildMirrored(paths []Path) RayBundle {
	var b RayBundle
	sum := 0.0
	for _, p := range paths {
		w := DbToLin(-p.LossDB)
		sum += w
		b.WLin = append(b.WLin, float32(w))
		b.AoD = append(b.AoD, p.AoA)
		b.AoA = append(b.AoA, p.AoD)
	}
	b.SumDb = LinToDb(sum)
	return b
}

// Refreshing a bundle in place (the retrace-after-invalidation path) must
// not allocate once the backing arrays have grown to capacity.
func TestBundleRebuildZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(3)
	paths := randomPaths(rng, 9)
	var b RayBundle
	b.Rebuild(paths) // grow storage
	if avg := testing.AllocsPerRun(1000, func() {
		b.Rebuild(paths)
	}); avg != 0 {
		t.Errorf("Rebuild allocates %.1f/op, want 0", avg)
	}
	var r RayBundle
	if avg := testing.AllocsPerRun(1000, func() {
		b.Rebuild(paths)
		r = b.Reversed()
	}); avg != 0 || r.Len() != len(paths) {
		t.Errorf("Rebuild plus Reversed allocates %.1f/op, want 0", avg)
	}
}

// The pair kernel must agree with the retained scalar reference
// (ReceivedPowerDBm over the same path list and gain functions) within
// the documented float32 error budget — tabulated and scalar-fallback
// sides alike.
func TestPowerMwScalarParity(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 50; trial++ {
		paths := randomPaths(rng, 1+rng.Intn(8))
		var b RayBundle
		b.Rebuild(paths)
		txTab := randomTable(rng, 512)
		rxTab := randomTable(rng, 512)
		txBore := rng.Range(-math.Pi, math.Pi)
		rxBore := rng.Range(-math.Pi, math.Pi)
		txGain := tableGainFunc(txTab, txBore)
		rxGain := tableGainFunc(rxTab, rxBore)
		want := ReceivedPowerDBm(0, paths, txGain, rxGain)

		hot := b.PowerMw(
			&PatternRef{Bore: txBore, Gain: txGain, Tab: txTab},
			&PatternRef{Bore: rxBore, Gain: rxGain, Tab: rxTab})
		cold := b.PowerMw(
			&PatternRef{Bore: txBore, Gain: txGain},
			&PatternRef{Bore: rxBore, Gain: rxGain})
		for name, mw := range map[string]float64{"hot": hot, "cold": cold} {
			if d := math.Abs(LinToDb(mw) - want); d > BatchEpsilonDB {
				t.Fatalf("trial %d: %s kernel off by %.3g dB (budget %.3g)", trial, name, d, BatchEpsilonDB)
			}
		}
	}
}

// The sweep kernel must produce, per transmit ref, the same power as the
// pair kernel run with that ref — and permuting the refs must permute
// the output rows bit-for-bit (the metamorphic sector-relabeling check).
func TestSweepPowerMwPermutation(t *testing.T) {
	rng := stats.NewRNG(5)
	paths := randomPaths(rng, 6)
	var b RayBundle
	b.Rebuild(paths)
	rxTab := randomTable(rng, 256)
	rx := PatternRef{Bore: 0.3, Gain: tableGainFunc(rxTab, 0.3), Tab: rxTab}

	const nSec = 11
	refs := make([]PatternRef, nSec)
	for s := range refs {
		tab := randomTable(rng, 256)
		bore := rng.Range(-math.Pi, math.Pi)
		refs[s] = PatternRef{Bore: bore, Gain: tableGainFunc(tab, bore), Tab: tab}
	}
	dst := make([]float64, nSec)
	scratch := make([]float64, b.Len())
	b.SweepPowerMw(dst, refs, &rx, scratch)

	for s := range refs {
		pair := b.PowerMw(&refs[s], &rx)
		if d := math.Abs(LinToDb(dst[s]) - LinToDb(pair)); d > BatchEpsilonDB {
			t.Errorf("sector %d: sweep %.6g vs pair %.6g mW (%.3g dB apart)", s, dst[s], pair, d)
		}
	}

	// Relabel: evaluate the same refs in a shuffled order.
	perm := rng.Perm(nSec)
	shuffled := make([]PatternRef, nSec)
	for i, p := range perm {
		shuffled[i] = refs[p]
	}
	dst2 := make([]float64, nSec)
	b.SweepPowerMw(dst2, shuffled, &rx, scratch)
	for i, p := range perm {
		if dst2[i] != dst[p] {
			t.Errorf("row %d: relabeled sweep %v != original row %d value %v", i, dst2[i], p, dst[p])
		}
	}
}

// A sweep with caller-provided scratch must not allocate.
func TestSweepPowerMwZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(6)
	paths := randomPaths(rng, 5)
	var b RayBundle
	b.Rebuild(paths)
	rxTab := randomTable(rng, 256)
	rx := PatternRef{Bore: 0, Gain: tableGainFunc(rxTab, 0), Tab: rxTab}
	refs := make([]PatternRef, 8)
	for s := range refs {
		tab := randomTable(rng, 256)
		refs[s] = PatternRef{Bore: 0.1, Gain: tableGainFunc(tab, 0.1), Tab: tab}
	}
	dst := make([]float64, len(refs))
	scratch := make([]float64, b.Len())
	if avg := testing.AllocsPerRun(1000, func() {
		b.SweepPowerMw(dst, refs, &rx, scratch)
	}); avg != 0 {
		t.Errorf("SweepPowerMw allocates %.1f/op, want 0", avg)
	}
}

// MaxGainDB is only claimed when both sides are tabulated, and must bound
// every realizable power.
func TestMaxGainDBBounds(t *testing.T) {
	rng := stats.NewRNG(7)
	paths := randomPaths(rng, 6)
	var b RayBundle
	b.Rebuild(paths)
	txTab := randomTable(rng, 128)
	rxTab := randomTable(rng, 128)
	tx := PatternRef{Bore: 0, Gain: tableGainFunc(txTab, 0), Tab: txTab}
	rx := PatternRef{Bore: 0, Gain: tableGainFunc(rxTab, 0), Tab: rxTab}
	bound, ok := b.MaxGainDB(&tx, &rx)
	if !ok {
		t.Fatal("bound unavailable with both sides tabulated")
	}
	if got := LinToDb(b.PowerMw(&tx, &rx)); got > bound+1e-9 {
		t.Errorf("power %v dBm exceeds claimed bound %v", got, bound)
	}
	cold := PatternRef{Gain: tx.Gain}
	if _, ok := b.MaxGainDB(&cold, &rx); ok {
		t.Error("bound claimed with an untabulated side")
	}
}

// BenchmarkBundleRebuild is the visibility-list rebuild microbenchmark:
// refreshing a warmed bundle from a path list.
func BenchmarkBundleRebuild(b *testing.B) {
	rng := stats.NewRNG(8)
	paths := randomPaths(rng, 8)
	var bundle RayBundle
	bundle.Rebuild(paths)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle.Rebuild(paths)
	}
}

// BenchmarkPairKernel measures the hot pair kernel over a tabulated
// 8-ray bundle.
func BenchmarkPairKernel(b *testing.B) {
	rng := stats.NewRNG(9)
	paths := randomPaths(rng, 8)
	var bundle RayBundle
	bundle.Rebuild(paths)
	txTab := randomTable(rng, 4096)
	rxTab := randomTable(rng, 4096)
	tx := PatternRef{Bore: 0.2, Gain: tableGainFunc(txTab, 0.2), Tab: txTab}
	rx := PatternRef{Bore: -0.4, Gain: tableGainFunc(rxTab, -0.4), Tab: rxTab}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle.PowerMw(&tx, &rx)
	}
}
