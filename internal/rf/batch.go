package rf

import (
	"math"

	"repro/internal/geom"
)

// This file holds the batched channel-math kernels: cached ray bundles
// with precomputed linear path weights, tabulated float32 pattern slabs,
// and the codebook-sweep / pair-power kernels that evaluate them without
// per-path transcendental math. The scalar path (ReceivedPowerDBm over
// GainFuncs) is retained as the reference implementation; the parity
// tests pin the two against each other within BatchEpsilonDB.

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

// AngleBin maps an angle to its bin index in a bins-entry table covering
// (-π, π]. The arithmetic mirrors the PhasedArray LUT lookup exactly, so
// a tabulated pattern and the scalar LUT path select the same bin for the
// same angle.
func AngleBin(theta float64, bins int) int {
	t := (geom.NormalizeAngle(theta) + math.Pi) / (2 * math.Pi) * float64(bins)
	i := int(t)
	if i < 0 {
		i = 0
	}
	if i >= bins {
		i = bins - 1
	}
	return i
}

// BatchEpsilonDB is the documented error budget between the batch kernels
// and the retained scalar path: float32 storage of the linear gain tables
// and path weights bounds the relative error of every factor near 1e-7,
// and the non-coherent sums accumulate in float64, so end-to-end power
// parity holds well inside a millidecibel. The parity tests assert this
// bound over randomized arrays, codebooks and ray bundles.
const BatchEpsilonDB = 1e-3

// PatternTable is a tabulated azimuthal pattern: linear power gain over
// len(Lin) uniform bins of the local-frame angle. Tables are immutable
// once built and shared freely across radios (the antenna package
// publishes them through its fingerprinted LUT cache).
type PatternTable struct {
	// Lin is the linear power gain per angle bin.
	Lin []float32
	// MaxDB is the table's peak gain in dBi, used for conservative
	// visibility bounds.
	MaxDB float64
}

// PatternRef describes one mounted antenna pattern to the batch kernels:
// a boresight, a scalar gain fallback, and (once the underlying pattern
// is hot) a tabulated float32 slab. Gain takes global-frame angles and
// must never be nil; Tab/Poll are optional — while Tab is nil the kernels
// fall back to Gain per ray, preserving the lazy LUT-build economics of
// the scalar path.
type PatternRef struct {
	// Bore is the global-frame boresight the table lookups rotate by.
	Bore float64
	// Gain is the scalar oriented gain function (global frame, dBi).
	Gain GainFunc
	// Tab is the tabulated pattern, nil until available.
	Tab *PatternTable
	// Poll, when set, is asked for the table while Tab is nil — it
	// returns nil until the underlying pattern has been tabulated.
	Poll func() *PatternTable
}

// Table returns the pattern's slab, polling for a freshly built one when
// none is attached yet.
func (r *PatternRef) Table() *PatternTable {
	if r.Tab == nil && r.Poll != nil {
		r.Tab = r.Poll()
	}
	return r.Tab
}

// gainLin returns the linear gain towards the global angle theta using
// the table when present (tab may be nil).
func (r *PatternRef) gainLin(tab *PatternTable, theta float64) float64 {
	if tab != nil {
		return float64(tab.Lin[AngleBin(theta-r.Bore, len(tab.Lin))])
	}
	return DbToLin(r.Gain(theta))
}

// RayBundle is the cached batch representation of one traced channel:
// per-path linear weights (10^(-LossDB/10) as float32) alongside the
// departure and arrival angles, plus the aggregate weight bound used by
// the visibility test. Rebuild reuses the backing arrays, so refreshing a
// bundle after a retrace allocates nothing once capacity has grown.
type RayBundle struct {
	// WLin holds 10^(-LossDB/10) per path.
	WLin []float32
	// AoD and AoA are the global-frame departure/arrival angles per path.
	AoD, AoA []float64
	// SumDb is 10·log10(ΣWLin): the channel's gain ceiling with 0 dBi
	// antennas, -Inf for an empty bundle.
	SumDb float64
}

// Rebuild refills the bundle from a traced path list, reusing storage.
func (b *RayBundle) Rebuild(paths []Path) {
	b.WLin = b.WLin[:0]
	b.AoD = b.AoD[:0]
	b.AoA = b.AoA[:0]
	sum := 0.0
	for _, p := range paths {
		w := DbToLin(-p.LossDB)
		sum += w
		b.WLin = append(b.WLin, float32(w))
		b.AoD = append(b.AoD, p.AoD)
		b.AoA = append(b.AoA, p.AoA)
	}
	b.SumDb = LinToDb(sum)
}

// Reversed returns the mirrored orientation of the bundle as a view over
// the same storage: reciprocity keeps the weights and the gain ceiling,
// departure and arrival swap. Rebuild may move the backing arrays, so
// re-derive the view after every Rebuild.
func (b *RayBundle) Reversed() RayBundle {
	return RayBundle{WLin: b.WLin, AoD: b.AoA, AoA: b.AoD, SumDb: b.SumDb}
}

// Len returns the number of rays in the bundle.
func (b *RayBundle) Len() int { return len(b.WLin) }

// MaxGainDB returns a conservative upper bound on the bundle's combined
// channel+antenna gain under the given patterns. The bound is only
// available when both sides are tabulated (a scalar fallback has no
// cheap peak); ok reports availability.
func (b *RayBundle) MaxGainDB(tx, rx *PatternRef) (bound float64, ok bool) {
	txTab, rxTab := tx.Table(), rx.Table()
	if txTab == nil || rxTab == nil {
		return 0, false
	}
	return b.SumDb + txTab.MaxDB + rxTab.MaxDB, true
}

// PowerMw is the pair kernel: the non-coherent sum of per-ray linear
// weights times both antenna gains, i.e. the received power in mW for a
// 0 dBm transmit reference. Tabulated sides cost two loads and a multiply
// per ray; untabulated sides fall back to the scalar GainFunc (one exp
// per ray), matching the scalar path's lazy-LUT behaviour.
func (b *RayBundle) PowerMw(tx, rx *PatternRef) float64 {
	txTab, rxTab := tx.Table(), rx.Table()
	total := 0.0
	for i, w := range b.WLin {
		lin := float64(w)
		db := 0.0
		if txTab != nil {
			lin *= float64(txTab.Lin[AngleBin(b.AoD[i]-tx.Bore, len(txTab.Lin))])
		} else {
			db += tx.Gain(b.AoD[i])
		}
		if rxTab != nil {
			lin *= float64(rxTab.Lin[AngleBin(b.AoA[i]-rx.Bore, len(rxTab.Lin))])
		} else {
			db += rx.Gain(b.AoA[i])
		}
		if db != 0 {
			lin *= DbToLin(db)
		}
		total += lin
	}
	return total
}

// SweepPowerMw is the codebook-sweep kernel: it evaluates every transmit
// pattern in txRefs against the bundle in one call, writing the received
// power in mW (0 dBm reference) into dst sector-major. The receive-side
// gains are resolved once per ray into rxLin (caller-provided scratch of
// at least Len() entries) and reused across all sectors — the
// amortization that makes a 22-sector sweep cheaper than 22 pair calls.
func (b *RayBundle) SweepPowerMw(dst []float64, txRefs []PatternRef, rx *PatternRef, rxLin []float64) {
	rxTab := rx.Table()
	for i := range b.WLin {
		rxLin[i] = rx.gainLin(rxTab, b.AoA[i])
	}
	for s := range txRefs {
		t := &txRefs[s]
		tab := t.Table()
		total := 0.0
		for i, w := range b.WLin {
			lin := float64(w) * rxLin[i]
			if tab != nil {
				lin *= float64(tab.Lin[AngleBin(b.AoD[i]-t.Bore, len(tab.Lin))])
			} else {
				lin *= DbToLin(t.Gain(b.AoD[i]))
			}
			total += lin
		}
		dst[s] = total
	}
}
