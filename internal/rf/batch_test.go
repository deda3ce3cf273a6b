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

// randomPattern returns a synthetic smooth pattern mounted at a random
// boresight: a main lobe of up to 20 dBi over a -20 dBi floor.
func randomPattern(rng *stats.RNG) GainFunc {
	peak, bore, width := rng.Range(0, 20), rng.Range(-math.Pi, math.Pi), rng.Range(0.2, 1.5)
	return func(theta float64) float64 {
		d := math.Remainder(theta-bore, 2*math.Pi) / width
		return math.Max(peak-12*d*d, -20)
	}
}

// wlinTolDB bounds how far the kernels may sit from the scalar path:
// only the float32 storage of each ray's weight differs, a relative
// error of at most 2⁻²⁴ (2.6e-7 dB) per ray.
const wlinTolDB = 1e-6

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
// weight per ray, angles copied. The Reversed view must equal a bundle built from the mirrored
// path list field by field.
func TestBundleRebuildParity(t *testing.T) {
	rng := stats.NewRNG(2)
	paths := randomPaths(rng, 7)
	var b RayBundle
	b.Rebuild(paths)
	if b.Len() != len(paths) {
		t.Fatalf("Len = %d, want %d", b.Len(), len(paths))
	}
	for i, p := range paths {
		w := DbToLin(-p.LossDB)
		if b.WLin[i] != float32(w) {
			t.Errorf("ray %d: WLin = %v, want %v", i, b.WLin[i], float32(w))
		}
		if b.AoD[i] != p.AoD || b.AoA[i] != p.AoA {
			t.Errorf("ray %d: angles %v/%v, want %v/%v", i, b.AoD[i], b.AoA[i], p.AoD, p.AoA)
		}
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
}

// rebuildMirrored builds the bundle of the mirrored channel directly from
// the path list — every path's departure and arrival swapped — the way a
// reverse-direction trace would fill it.
func rebuildMirrored(paths []Path) RayBundle {
	var b RayBundle
	for _, p := range paths {
		b.WLin = append(b.WLin, float32(DbToLin(-p.LossDB)))
		b.AoD = append(b.AoD, p.AoA)
		b.AoA = append(b.AoA, p.AoD)
	}
	return b
}

// Refreshing a bundle in place (the retrace-after-invalidation path) must
// not allocate once the backing arrays have grown to capacity.
func TestBundleRebuildZeroAlloc(t *testing.T) {
	rng := stats.NewRNG(3)
	paths := randomPaths(rng, 9)
	var b RayBundle
	b.Rebuild(paths) // grow storage
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			b.Rebuild(paths)
		}
	}); n != 0 {
		t.Errorf("1000 Rebuilds allocate %v times, want 0", n)
	}
	var r RayBundle
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			b.Rebuild(paths)
			r = b.Reversed()
		}
	}); n != 0 || r.Len() != len(paths) {
		t.Errorf("1000 Rebuild plus Reversed calls allocate %v times, want 0", n)
	}
}

// The pair kernel must agree with the retained scalar reference
// (ReceivedPowerDBm over the same path list and gain functions) up to
// the float32 storage of the ray weights, and exactly with the same sum
// over those stored weights.
func TestPowerMwScalarParity(t *testing.T) {
	rng := stats.NewRNG(4)
	for trial := 0; trial < 50; trial++ {
		paths := randomPaths(rng, 1+rng.Intn(8))
		var b RayBundle
		b.Rebuild(paths)
		tx, rx := randomPattern(rng), randomPattern(rng)
		got := b.PowerMw(tx, rx)
		if d := math.Abs(LinToDb(got) - ReceivedPowerDBm(0, paths, tx, rx)); d > wlinTolDB {
			t.Fatalf("trial %d: kernel off the scalar path by %.3g dB (budget %.3g)", trial, d, wlinTolDB)
		}
		want := 0.0
		for _, p := range paths {
			want += float64(float32(DbToLin(-p.LossDB))) * DbToLin(tx(p.AoD)+rx(p.AoA))
		}
		if got != want {
			t.Fatalf("trial %d: kernel %v, sum over the stored weights %v", trial, got, want)
		}
	}
}

// The sweep kernel must produce, per transmit pattern, the power of the
// pair kernel run with that pattern (to rounding: the sweep multiplies
// the two gains' linear values, the pair kernel adds them in dB) — and
// permuting the patterns must permute the output rows bit-for-bit (the
// metamorphic sector-relabeling check).
func TestSweepPowerMwPermutation(t *testing.T) {
	rng := stats.NewRNG(5)
	paths := randomPaths(rng, 6)
	var b RayBundle
	b.Rebuild(paths)
	rx := randomPattern(rng)

	const nSec = 11
	txs := make([]GainFunc, nSec)
	for s := range txs {
		txs[s] = randomPattern(rng)
	}
	dst := make([]float64, nSec)
	scratch := make([]float64, b.Len())
	b.SweepPowerMw(dst, txs, rx, scratch)

	for s := range txs {
		pair := b.PowerMw(txs[s], rx)
		if d := math.Abs(LinToDb(dst[s]) - LinToDb(pair)); d > 1e-9 {
			t.Errorf("sector %d: sweep %.6g vs pair %.6g mW (%.3g dB apart)", s, dst[s], pair, d)
		}
	}

	// Relabel: evaluate the same patterns in a shuffled order.
	perm := rng.Perm(nSec)
	shuffled := make([]GainFunc, nSec)
	for i, p := range perm {
		shuffled[i] = txs[p]
	}
	dst2 := make([]float64, nSec)
	b.SweepPowerMw(dst2, shuffled, rx, scratch)
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
	rx := randomPattern(rng)
	txs := make([]GainFunc, 8)
	for s := range txs {
		txs[s] = randomPattern(rng)
	}
	dst := make([]float64, len(txs))
	scratch := make([]float64, b.Len())
	if n := testing.AllocsPerRun(1, func() {
		for range 1000 {
			b.SweepPowerMw(dst, txs, rx, scratch)
		}
	}); n != 0 {
		t.Errorf("1000 SweepPowerMw calls allocate %v times, want 0", n)
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

// BenchmarkPairKernel measures the pair kernel over an 8-ray bundle.
func BenchmarkPairKernel(b *testing.B) {
	rng := stats.NewRNG(9)
	paths := randomPaths(rng, 8)
	var bundle RayBundle
	bundle.Rebuild(paths)
	tx, rx := randomPattern(rng), randomPattern(rng)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		bundle.PowerMw(tx, rx)
	}
}
