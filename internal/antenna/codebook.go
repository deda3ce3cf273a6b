package antenna

import (
	"cmp"
	"math"
	"math/cmplx"
	"slices"

	"repro/internal/geom"
	"repro/internal/stats"
)

// Sector is one directional codebook entry.
type Sector struct {
	// ID is the sector index used by the beam training protocol.
	ID int
	// SteerDeg is the nominal steering angle in degrees off boresight.
	SteerDeg float64
	// Pattern is the realized (quantized) beam pattern.
	Pattern Pattern
}

// Codebook is the set of predefined beam patterns a device can switch
// between. Millimeter wave systems steer via codebooks of fixed patterns
// rather than arbitrary weights to keep transceivers and beam training
// simple (Section 2, "Beam Steering").
type Codebook struct {
	// Sectors are the directional patterns used during data transmission.
	Sectors []Sector
	// QuasiOmni are the wide patterns swept during device discovery; the
	// D5000 sweeps 32 of them (Fig. 3 / Fig. 16).
	QuasiOmni []Pattern
}

// NewCodebook builds a codebook for the array: directional sectors
// uniformly covering ±coverageDeg, and nQuasiOmni pseudo-random wide
// patterns. The quasi-omni codewords use random phase states of the
// array's own quantized shifters, which is how real consumer hardware
// produces its lumpy, gap-riddled "omni" coverage.
//
// Every entry differs from the array only in its weights, so the
// entries live in one []PhasedArray that shares a's Elements and
// element errors, and their weights are cap-limited windows of one
// flat slab: a codebook costs a fixed handful of allocations however
// many entries it holds.
func NewCodebook(a *PhasedArray, nSectors int, coverageDeg float64, nQuasiOmni int, seed uint64) *Codebook {
	n := a.N()
	entries := make([]PhasedArray, nSectors+nQuasiOmni)
	slab := make([]complex128, len(entries)*n)
	// entry returns the k-th entry: a copy of a whose zeroed weights are
	// the k-th window of the slab, with no table or key of its own.
	entry := func(k int) *PhasedArray {
		e := &entries[k]
		*e = *a
		e.Weights = slab[k*n : (k+1)*n : (k+1)*n]
		e.invalidateLUT()
		return e
	}
	cb := &Codebook{Sectors: make([]Sector, nSectors), QuasiOmni: make([]Pattern, nQuasiOmni)}
	for i := range cb.Sectors {
		var deg float64
		if nSectors == 1 {
			deg = 0
		} else {
			deg = -coverageDeg + 2*coverageDeg*float64(i)/float64(nSectors-1)
		}
		b := entry(i)
		b.Steer(geom.Rad(deg))
		cb.Sectors[i] = Sector{ID: i, SteerDeg: deg, Pattern: b}
	}
	rng := stats.NewRNG(seed)
	states := 1
	if a.PhaseBits > 0 {
		states = 1 << uint(a.PhaseBits)
	}
	// Cluster elements that share a projected position on the steering
	// axis (the 2x8 array's row pairs): elements of one cluster always
	// receive the same phase, otherwise they would cancel. Order clusters
	// along the axis so "adjacent" means physically adjacent — a quasi-
	// omni codeword activates a short contiguous aperture, which is what
	// makes its beam wide.
	clusters := clusterByY(a)
	for q := range cb.QuasiOmni {
		b := entry(nSectors + q)
		// A quasi-omni codeword switches most clusters off: a small
		// active aperture radiates a wide (HPBW up to ~60°) but lumpy
		// pattern. Coarse random phases per cluster move the lobes and
		// gaps from codeword to codeword, which is what lets a sweep of
		// 32 such patterns cover the full service area. The codeword is
		// written straight into the entry's zeroed weight window.
		active := 2 + rng.Intn(2) // 2–3 adjacent active clusters
		if active > len(clusters) {
			active = len(clusters)
		}
		start := rng.Intn(len(clusters) - active + 1)
		for k := 0; k < active; k++ {
			var ph float64
			if a.PhaseBits > 0 {
				ph = 2 * math.Pi * float64(rng.Intn(states)) / float64(states)
			} else {
				ph = rng.Range(0, 2*math.Pi)
			}
			for _, i := range clusters[start+k] {
				b.Weights[i] = cmplx.Exp(complex(0, ph))
			}
		}
		cb.QuasiOmni[q] = b
	}
	return cb
}

// keyLUTs tags every pattern in the codebook with a stable identity:
// the model key plus the entry's kind and index. Codebooks are pure
// functions of (model, frequency, seed), so two radios of the same
// model and seed — e.g. every dock in a density sweep — form
// byte-identical patterns; the keys let them share one gain table per
// entry through the process-wide LUT cache instead of each building its
// own. Re-steering an entry clears its key.
func (cb *Codebook) keyLUTs(model lutKey) {
	for i, s := range cb.Sectors {
		if a, ok := s.Pattern.(*PhasedArray); ok {
			a.key = model
			a.key.kind, a.key.index = sectorEntry, i
		}
	}
	for i, q := range cb.QuasiOmni {
		if a, ok := q.(*PhasedArray); ok {
			a.key = model
			a.key.kind, a.key.index = quasiOmniEntry, i
		}
	}
}

// clusterByY groups element indices whose projected steering-axis
// positions coincide (within a small fraction of a wavelength), ordered
// along the axis. Each cluster is a run of one sorted index slice.
func clusterByY(a *PhasedArray) [][]int {
	order := make([]int, a.N())
	for i := range order {
		order[i] = i
	}
	slices.SortFunc(order, func(i, j int) int {
		return cmp.Compare(a.Elements[i].Y, a.Elements[j].Y)
	})
	eps := 2 * math.Pi / a.waveNumber() / 20 // λ/20
	clusters := make([][]int, 0, len(order))
	lo := 0
	for k := 1; k <= len(order); k++ {
		if k == len(order) || math.Abs(a.Elements[order[k]].Y-a.Elements[order[lo]].Y) >= eps {
			clusters = append(clusters, order[lo:k:k])
			lo = k
		}
	}
	return clusters
}

// D5000Codebook returns the codebook model of the Dell D5000 / E7440
// module: 2x8 array, sectors across the ±60° serviced cone (the dock's
// "cone of 120 degree width", Section 3.1), and the 32 quasi-omni
// discovery patterns of Fig. 3.
func D5000Codebook(freqHz float64, seed uint64) (*PhasedArray, *Codebook) {
	a := NewD5000Array(freqHz)
	a.ApplyImperfections(seed^0xE77, 1.0, 20)
	// 22 sectors over ±70°: the outermost sectors steer to the boundary
	// of the transmission area, where the paper measures degraded
	// directionality (Fig. 17, "D5000 Rotated").
	cb := NewCodebook(a, 22, 70, 32, seed)
	cb.keyLUTs(modelKey(modelD5000, freqHz, seed))
	return a, cb
}

// WiHDCodebook returns the codebook model of the DVDO Air-3c: irregular
// 24-element array with fewer, wider sectors — the paper observes the
// WiHD system transmitting "with a much wider antenna pattern than the
// D5000" (Section 3.2).
func WiHDCodebook(freqHz float64, seed uint64) (*PhasedArray, *Codebook) {
	a := NewIrregular24(freqHz, seed)
	a.ApplyImperfections(seed^0xA13, 1.2, 22)
	// Coarser phase control again widens beams.
	a.PhaseBits = 2
	cb := NewCodebook(a, 10, 75, 16, seed+1)
	cb.keyLUTs(modelKey(modelWiHD, freqHz, seed))
	return a, cb
}

// BestSector returns the codebook sector whose pattern maximizes gain
// towards the given local-frame angle, as a sector-level sweep (SLS-style
// beam training) would select it.
func (cb *Codebook) BestSector(theta float64) Sector {
	best := cb.Sectors[0]
	bestG := math.Inf(-1)
	for _, s := range cb.Sectors {
		if g := s.Pattern.GainDBi(theta); g > bestG {
			bestG = g
			best = s
		}
	}
	return best
}
