package rf

import "math"

// This file holds the batched channel-math kernels: cached ray bundles
// with precomputed linear path weights, and the pair and codebook-sweep
// kernels that evaluate antenna patterns (GainFuncs, in dB) over them.
// The scalar path (ReceivedPowerDBm over a path list) is retained as the
// reference implementation.

// dbToNat converts decibels to natural-log units (ln 10 / 10), so
// 10^(x/10) = exp(x·dbToNat). math.Exp is markedly cheaper than
// math.Pow(10, ·), which matters in the per-path hot loops.
const dbToNat = math.Ln10 / 10

// natToDb is the inverse scale: 10/ln 10.
const natToDb = 10 / math.Ln10

// DbToLin converts a dB (or dBm) value to the linear power ratio (or mW).
// -Inf maps to 0.
func DbToLin(db float64) float64 { return math.Exp(db * dbToNat) }

// LinToDb converts a linear power ratio (or mW) to dB (or dBm). Zero maps
// to -Inf.
func LinToDb(lin float64) float64 { return natToDb * math.Log(lin) }

// RayBundle is the cached batch representation of one traced channel:
// per-path linear weights (10^(-LossDB/10) as float32) alongside the
// departure and arrival angles. Rebuild reuses the backing arrays, so
// refreshing a bundle after a retrace allocates nothing once capacity
// has grown.
type RayBundle struct {
	// WLin holds 10^(-LossDB/10) per path.
	WLin []float32
	// AoD and AoA are the global-frame departure/arrival angles per path.
	AoD, AoA []float64
}

// Rebuild refills the bundle from a traced path list, reusing storage.
func (b *RayBundle) Rebuild(paths []Path) {
	b.WLin = b.WLin[:0]
	b.AoD = b.AoD[:0]
	b.AoA = b.AoA[:0]
	for _, p := range paths {
		b.WLin = append(b.WLin, float32(DbToLin(-p.LossDB)))
		b.AoD = append(b.AoD, p.AoD)
		b.AoA = append(b.AoA, p.AoA)
	}
}

// Reversed returns the mirrored orientation of the bundle as a view over
// the same storage: reciprocity keeps the weights, departure and arrival
// swap. Rebuild may move the backing arrays, so re-derive the view after
// every Rebuild.
func (b *RayBundle) Reversed() RayBundle {
	return RayBundle{WLin: b.WLin, AoD: b.AoA, AoA: b.AoD}
}

// Len returns the number of rays in the bundle.
func (b *RayBundle) Len() int { return len(b.WLin) }

// PowerMw is the pair kernel: the non-coherent sum of per-ray linear
// weights times both antenna gains, i.e. the received power in mW for a
// 0 dBm transmit reference. Both gains are summed in dB, so each ray
// costs one exp.
func (b *RayBundle) PowerMw(tx, rx GainFunc) float64 {
	total := 0.0
	for i, w := range b.WLin {
		total += float64(w) * DbToLin(tx(b.AoD[i])+rx(b.AoA[i]))
	}
	return total
}

// SweepPowerMw is the codebook-sweep kernel: it evaluates every transmit
// pattern in txGains against the bundle in one call, writing the
// received power in mW (0 dBm reference) into dst, indexed like txGains.
// The receive-side gains are resolved once per ray into rxLin
// (caller-provided scratch of at least Len() entries) and reused across
// all sectors — the amortization that makes a 22-sector sweep cheaper
// than 22 pair calls.
func (b *RayBundle) SweepPowerMw(dst []float64, txGains []GainFunc, rx GainFunc, rxLin []float64) {
	for i := range b.WLin {
		rxLin[i] = DbToLin(rx(b.AoA[i]))
	}
	for s, tx := range txGains {
		total := 0.0
		for i, w := range b.WLin {
			total += float64(w) * rxLin[i] * DbToLin(tx(b.AoD[i]))
		}
		dst[s] = total
	}
}
