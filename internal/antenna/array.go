package antenna

import (
	"fmt"
	"math"
	"math/cmplx"
	"sync"

	"repro/internal/geom"
	"repro/internal/rf"
	"repro/internal/stats"
)

// PhasedArray models an electronically steered antenna array with
// per-element phase control. Consumer-grade 60 GHz radios use few
// elements and very coarse (2-bit) phase shifters; both limitations are
// explicit parameters here because they are the root cause of the side
// lobes the paper measures.
type PhasedArray struct {
	// Elements holds the positions of the radiating elements in meters,
	// in the array's local frame. The azimuth pattern depends on the
	// positions projected onto the azimuthal plane.
	Elements []geom.Vec2
	// FreqHz is the carrier frequency; with element spacing it sets the
	// electrical aperture.
	FreqHz float64
	// ElementGainDBi is the boresight gain of one element (patch
	// antennas on consumer modules are a few dBi).
	ElementGainDBi float64
	// ElementHPBWDeg shapes the embedded element pattern; steering far
	// off broadside loses element gain, which is the paper's "boundary
	// of the transmission area" effect.
	ElementHPBWDeg float64
	// PhaseBits is the phase-shifter resolution: weights are quantized
	// to 2^PhaseBits phase states. 0 means ideal (continuous) phase.
	PhaseBits int
	// Weights are the current complex element weights. Use Steer or
	// SetWeights to configure them.
	Weights []complex128
	// errs holds fixed per-element complex gain/phase perturbations
	// (manufacturing tolerances, feed-line mismatch, mutual coupling of
	// a cost-effective module). Nil means a perfect array. Set via
	// ApplyImperfections.
	errs []complex128
	// cached element-pattern exponent (GainDBi is the simulator's hottest
	// function; recomputing log/cos per evaluation is measurable).
	patternQ  float64
	patternHP float64
	// lut caches the realized pattern at lutBins resolution once the
	// current weights have served enough queries to amortize the build
	// (a trained sector is evaluated for every path of every frame; a
	// codebook entry probed twice during training is not). The gain is
	// defined on the bins either way (see GainDBi), so whether the table
	// exists never shows in a result.
	lut      []float64
	lutCalls int
	// lutKey, when non-empty, is a fingerprint identifying this pattern
	// across array instances (codebook model + build parameters + entry
	// index). Keyed patterns publish their built tables to a process-wide
	// cache so every radio steering the same codebook entry shares one
	// table instead of each paying the build. Any mutation clears the key:
	// the table it names no longer describes the weights.
	lutKey string
}

// lutBins is the gain-table resolution: 4096 bins ≈ 0.088°, an order of
// magnitude finer than any measurement sweep in the repository.
const lutBins = 4096

// lutBuildThreshold is the query count after which a pattern is
// considered hot and tabulated. It is a cost policy only: tabulated and
// untabulated gains are the same numbers.
const lutBuildThreshold = 256

// angleBin returns the index of the gain bin containing theta. The
// lutBins bins tile (-π, π] uniformly; bin i is centred on binAngle(i).
func angleBin(theta float64) int {
	t := (geom.NormalizeAngle(theta) + math.Pi) / (2 * math.Pi) * lutBins
	i := int(t)
	if i < 0 {
		i = 0
	}
	if i >= lutBins {
		i = lutBins - 1
	}
	return i
}

// binAngle returns the centre angle of gain bin i, where a pattern is
// sampled.
func binAngle(i int) float64 {
	return -math.Pi + 2*math.Pi*(float64(i)+0.5)/lutBins
}

// lutCacheMax bounds the shared table cache. A quick campaign builds 16
// shared tables and a full one 36; a long-lived daemon running every job
// at a fresh seed would otherwise keep one table per (model, seed,
// entry) forever.
const lutCacheMax = 128

// lutStore is a process-wide cache of gain tables keyed by pattern
// fingerprint. Tables are immutable once stored, so concurrent sweep
// workers share them freely. When full, the store is emptied before the
// next insert: tables hold exactly what GainDBi computes without them, so
// a rebuild costs time and never changes a result.
type lutStore struct {
	mu   sync.Mutex
	max  int
	tabs map[string][]float64
}

// lutCache is the store every fingerprinted PhasedArray shares.
var lutCache = &lutStore{max: lutCacheMax}

// load returns the table stored under key, if any.
func (s *lutStore) load(key string) ([]float64, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	lut, ok := s.tabs[key]
	return lut, ok
}

// loadOrStore returns the table already stored under key, or stores and
// returns lut. Racing builders converge on one canonical table; both
// computed identical values, so either slice is fine.
func (s *lutStore) loadOrStore(key string, lut []float64) []float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	if old, ok := s.tabs[key]; ok {
		return old
	}
	if s.tabs == nil || len(s.tabs) >= s.max {
		s.tabs = make(map[string][]float64)
	}
	s.tabs[key] = lut
	return lut
}

func (a *PhasedArray) invalidateLUT() {
	a.lut = nil
	a.lutCalls = 0
	a.lutKey = ""
}

func (a *PhasedArray) buildLUT() {
	if a.lutKey != "" {
		if lut, ok := lutCache.load(a.lutKey); ok {
			a.lut = lut
			return
		}
	}
	lut := make([]float64, lutBins)
	for i := range lut {
		lut[i] = a.gainExact(binAngle(i))
	}
	if a.lutKey != "" {
		lut = lutCache.loadOrStore(a.lutKey, lut)
	}
	a.lut = lut
}

// ApplyImperfections draws fixed per-element amplitude and phase errors
// (log-normal gain with gainSigmaDB, Gaussian phase with phaseSigmaDeg)
// from the seed. Consumer-grade modules carry substantial tolerances;
// these raise the side-lobe floor of every pattern the array forms.
func (a *PhasedArray) ApplyImperfections(seed uint64, gainSigmaDB, phaseSigmaDeg float64) {
	rng := stats.NewRNG(seed | 1)
	a.errs = make([]complex128, len(a.Elements))
	for i := range a.errs {
		g := math.Pow(10, rng.Norm(0, gainSigmaDB)/20)
		ph := geom.Rad(rng.Norm(0, phaseSigmaDeg))
		a.errs[i] = complex(g*math.Cos(ph), g*math.Sin(ph))
	}
	a.invalidateLUT()
}

// NewURA builds a uniform rectangular array of ny rows by nx columns with
// the given element spacing in wavelengths. The steering axis (nx
// columns) lies along the local Y axis so that boresight — the broadside
// direction, where all elements are in phase — is the local +X axis
// (θ = 0). Rows are stacked perpendicular to the azimuthal plane and
// collapse onto the same projected positions, contributing pure gain,
// exactly like the D5000's 2x8 module where the 8-element axis does the
// azimuth steering.
func NewURA(nx, ny int, spacingWl, freqHz float64) *PhasedArray {
	wl := rf.Wavelength(freqHz)
	a := &PhasedArray{
		FreqHz:         freqHz,
		ElementGainDBi: 5,
		ElementHPBWDeg: 105,
		PhaseBits:      2,
	}
	for r := 0; r < ny; r++ {
		for c := 0; c < nx; c++ {
			y := (float64(c) - float64(nx-1)/2) * spacingWl * wl
			a.Elements = append(a.Elements, geom.V(0, y))
		}
	}
	a.Weights = make([]complex128, len(a.Elements))
	for i := range a.Weights {
		a.Weights[i] = 1
	}
	return a
}

// NewD5000Array returns the model of the Wilocity 2x8 module found in
// both the docking station and the notebook (Section 3.1), with λ/2
// spacing and 2-bit phase shifters.
func NewD5000Array(freqHz float64) *PhasedArray {
	return NewURA(8, 2, 0.5, freqHz)
}

// NewIrregular24 returns the model of the Air-3c's 24-element array "with
// irregular alignment in rectangular shape" (Section 3.1): positions on a
// 4x6 grid, jittered deterministically from the seed. Only four jittered
// columns steer the azimuth (the long axis is stacked vertically), so
// the beams come out roughly twice as wide as the D5000's — the paper
// finds the WiHD system transmits "with a much wider antenna pattern".
// The irregular spacing additionally smears the array factor and raises
// diffuse side lobes.
func NewIrregular24(freqHz float64, seed uint64) *PhasedArray {
	wl := rf.Wavelength(freqHz)
	rng := stats.NewRNG(seed)
	a := &PhasedArray{
		FreqHz:         freqHz,
		ElementGainDBi: 5,
		ElementHPBWDeg: 95,
		PhaseBits:      2,
	}
	const nx, ny = 4, 6
	for r := 0; r < ny; r++ {
		for c := 0; c < nx; c++ {
			y := (float64(c)-float64(nx-1)/2)*0.55*wl + rng.Range(-0.15, 0.15)*wl
			a.Elements = append(a.Elements, geom.V(0, y))
		}
	}
	a.Weights = make([]complex128, len(a.Elements))
	for i := range a.Weights {
		a.Weights[i] = 1
	}
	return a
}

// N returns the number of elements.
func (a *PhasedArray) N() int { return len(a.Elements) }

// waveNumber returns 2π/λ.
func (a *PhasedArray) waveNumber() float64 {
	return 2 * math.Pi / rf.Wavelength(a.FreqHz)
}

// phaseAt returns the propagation phase of element i towards direction
// theta: k · (x·cosθ + y·sinθ).
func (a *PhasedArray) phaseAt(i int, theta float64) float64 {
	s, c := math.Sincos(theta)
	e := a.Elements[i]
	return a.waveNumber() * (e.X*c + e.Y*s)
}

// QuantizePhase rounds phase (radians) to the nearest of 2^bits uniform
// phase states. bits ≤ 0 returns the phase unchanged.
func QuantizePhase(phase float64, bits int) float64 {
	if bits <= 0 {
		return phase
	}
	states := float64(uint(1) << uint(bits))
	step := 2 * math.Pi / states
	return math.Round(phase/step) * step
}

// Steer sets the weights to form a beam towards local angle theta0,
// conjugating the per-element phases and quantizing them to the array's
// phase-shifter resolution. This is how codebook entries are built.
func (a *PhasedArray) Steer(theta0 float64) {
	for i := range a.Weights {
		ph := QuantizePhase(-a.phaseAt(i, theta0), a.PhaseBits)
		a.Weights[i] = cmplx.Exp(complex(0, ph))
	}
	a.invalidateLUT()
}

// SetWeights installs explicit element weights (e.g. a quasi-omni
// codeword). The slice length must match the element count.
func (a *PhasedArray) SetWeights(w []complex128) error {
	if len(w) != len(a.Elements) {
		return fmt.Errorf("antenna: %d weights for %d elements", len(w), len(a.Elements))
	}
	copy(a.Weights, w)
	a.invalidateLUT()
	return nil
}

// elementPatternDB is the embedded element pattern: a cosine-shaped
// rolloff matched to ElementHPBWDeg, floored well below the back lobe of
// the array. Elements barely radiate behind the ground plane.
func (a *PhasedArray) elementPatternDB(theta float64) float64 {
	// NOTE: mutates only the cached exponent; safe because patterns are
	// evaluated from the single scheduler goroutine.
	theta = geom.NormalizeAngle(theta)
	abs := math.Abs(theta)
	if abs >= math.Pi/2 {
		// Behind the array's ground plane and the device chassis:
		// modules radiate almost nothing backwards.
		return -28
	}
	// Exponent chosen so the pattern is 3 dB down at HPBW/2 (cached per
	// beamwidth — this function runs once per path per transmission).
	if a.patternHP != a.ElementHPBWDeg {
		hp := geom.Rad(a.ElementHPBWDeg)
		a.patternQ = math.Log(0.5) / math.Log(math.Cos(hp/4)) / 2
		a.patternHP = a.ElementHPBWDeg
	}
	c := math.Cos(abs / 2)
	db := 20 * a.patternQ * math.Log10(c)
	return math.Max(db, -16)
}

// GainDBi implements Pattern: element gain, element pattern rolloff, and
// the array factor normalized so that an ideally phased array of N
// elements reaches ElementGainDBi + 10·log10(N) at the steered peak. The
// pattern is sampled at the centre of the lutBins bin containing theta,
// so the gain is a pure function of weights and angle; hot patterns
// serve the same samples from a table.
func (a *PhasedArray) GainDBi(theta float64) float64 {
	i := angleBin(theta)
	if a.lut == nil {
		a.lutCalls++
		if a.lutCalls <= lutBuildThreshold {
			return a.gainExact(binAngle(i))
		}
		a.buildLUT()
	}
	return a.lut[i]
}

// gainExact evaluates the pattern from first principles.
func (a *PhasedArray) gainExact(theta float64) float64 {
	theta = geom.NormalizeAngle(theta)
	var sum complex128
	var norm float64
	for i, w := range a.Weights {
		if a.errs != nil {
			w *= a.errs[i]
		}
		ph := a.phaseAt(i, theta)
		sum += w * cmplx.Exp(complex(0, ph))
		norm += real(w)*real(w) + imag(w)*imag(w)
	}
	if norm == 0 {
		return backLobeFloorDBi
	}
	af := (real(sum)*real(sum) + imag(sum)*imag(sum)) / norm
	afDB := -60.0
	if af > 1e-6 {
		afDB = 10 * math.Log10(af)
	}
	g := a.ElementGainDBi + a.elementPatternDB(theta) + afDB
	return math.Max(g, backLobeFloorDBi)
}

// Clone returns a deep copy (used to snapshot codebook entries).
func (a *PhasedArray) Clone() *PhasedArray {
	b := *a
	b.Elements = append([]geom.Vec2(nil), a.Elements...)
	b.Weights = append([]complex128(nil), a.Weights...)
	b.errs = append([]complex128(nil), a.errs...)
	// The LUT (if built) remains valid for the cloned weights and is
	// shared read-only; any mutation on the clone invalidates its copy.
	return &b
}
