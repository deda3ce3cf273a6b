package rf

import (
	"math"

	"repro/internal/stats"
)

// LinkBudget collects the radio parameters shared by the devices under
// test. Defaults are calibrated so the simulated D5000 link reproduces
// the paper's observations: the second-highest MCS (16-QAM 5/8) at 2 m
// but never the highest, QPSK-class rates at 8 m, BPSK-class at 14 m, and
// a hard range cliff somewhere between 10 and 17 m depending on the day's
// atmospheric margin (Figs. 12 and 13).
type LinkBudget struct {
	// TxPowerDBm is the conducted transmit power fed to the array.
	TxPowerDBm float64
	// NoiseFigureDB is the receiver noise figure.
	NoiseFigureDB float64
	// ImplementationLossDB lumps filter, quantization and baseband
	// losses — consumer-grade 60 GHz silicon is far from ideal.
	ImplementationLossDB float64
	// BandwidthHz is the modulated bandwidth (1.76 GHz for both DUTs).
	BandwidthHz float64
	// ShadowingSigmaDB is the standard deviation of slow log-normal
	// shadowing applied per link realization.
	ShadowingSigmaDB float64
	// AtmosphericSigmaDB is the day-to-day variation of the link margin;
	// the paper attributes the 10–17 m spread of the range cliff to
	// "different atmospheric conditions on different days" (Section 5).
	AtmosphericSigmaDB float64
	// EVMFloorDB caps the effective SINR: transmitter and receiver error
	// vector magnitude of cost-effective 60 GHz silicon puts a ceiling on
	// demodulation quality no matter how strong the signal. This is why
	// the paper never observes the highest MCS even on sub-2 m links
	// (§4.1). Zero disables the cap.
	EVMFloorDB float64
}

// DefaultBudget returns the calibrated consumer-grade link budget.
func DefaultBudget() LinkBudget {
	return LinkBudget{
		TxPowerDBm:           0,
		NoiseFigureDB:        10,
		ImplementationLossDB: 5.8,
		BandwidthHz:          BandwidthHz,
		ShadowingSigmaDB:     1.0,
		AtmosphericSigmaDB:   2.0,
		EVMFloorDB:           24.5,
	}
}

// EffectiveSINRdB applies the EVM ceiling to a raw SINR: the distortion
// floor adds like noise, so the result approaches EVMFloorDB
// asymptotically and never exceeds it.
func (b LinkBudget) EffectiveSINRdB(sinrDB float64) float64 {
	if b.EVMFloorDB <= 0 {
		return sinrDB
	}
	if math.IsInf(sinrDB, -1) {
		return sinrDB
	}
	inv := math.Pow(10, -sinrDB/10) + math.Pow(10, -b.EVMFloorDB/10)
	return -10 * math.Log10(inv)
}

// NoiseFloorDBm returns the effective noise floor for this budget,
// including the implementation loss (folded into noise so SNR comparisons
// stay one-dimensional).
func (b LinkBudget) NoiseFloorDBm() float64 {
	return NoiseFloorDBm(b.BandwidthHz, b.NoiseFigureDB) + b.ImplementationLossDB
}

// SNRdB converts a received power into an effective SNR under this budget.
func (b LinkBudget) SNRdB(rxPowerDBm float64) float64 {
	return rxPowerDBm - b.NoiseFloorDBm()
}

// BudgetEval caches the linear-domain constants derived from a
// LinkBudget (noise floor in mW, inverse EVM ceiling) so the delivery
// hot path can turn already-linear signal and interference powers into
// an effective SINR with a single logarithm. LinkBudget is a small
// comparable struct, so Sync detects parameter changes with one struct
// compare and re-derives lazily.
type BudgetEval struct {
	budget LinkBudget
	valid  bool
	// NoiseFloor is the budget's noise floor in dBm.
	NoiseFloor float64
	noiseMw    float64
	evmInv     float64
}

// Sync re-derives the cached constants if b differs from the budget the
// cache was built for.
func (e *BudgetEval) Sync(b LinkBudget) {
	if e.valid && e.budget == b {
		return
	}
	e.budget = b
	e.NoiseFloor = b.NoiseFloorDBm()
	e.noiseMw = DbToLin(e.NoiseFloor)
	e.evmInv = 0
	if b.EVMFloorDB > 0 {
		e.evmInv = DbToLin(-b.EVMFloorDB)
	}
	e.valid = true
}

// EffectiveSINRdBFromMw fuses SINRdB and EffectiveSINRdB for linear
// inputs: signal and interference in mW. Because both the EVM floor and
// the noise+interference term add in the inverse-linear domain,
//
//	SINR_eff = -10·log10((noise+intf)/sig + 10^(-EVM/10))
//
// which costs one log instead of the scalar path's three pows and two
// logs. A non-positive signal degenerates to -Inf.
func (e *BudgetEval) EffectiveSINRdBFromMw(sigMw, intfMw float64) float64 {
	if sigMw <= 0 {
		return math.Inf(-1)
	}
	return -LinToDb((e.noiseMw+intfMw)/sigMw + e.evmInv)
}

// EffectiveSNRdB is the interference-free variant over a dBm input: the
// budget's EffectiveSINRdB(SNRdB(rxPowerDBm)) composition in one call.
func (e *BudgetEval) EffectiveSNRdB(rxPowerDBm float64) float64 {
	return e.EffectiveSINRdBFromMw(DbToLin(rxPowerDBm), 0)
}

// DrawAtmosphericOffsetDB samples one experiment-day's link-margin offset.
func (b LinkBudget) DrawAtmosphericOffsetDB(rng *stats.RNG) float64 {
	if b.AtmosphericSigmaDB <= 0 {
		return 0
	}
	return rng.Norm(0, b.AtmosphericSigmaDB)
}

// DrawShadowingDB samples slow shadowing for one link realization.
func (b LinkBudget) DrawShadowingDB(rng *stats.RNG) float64 {
	if b.ShadowingSigmaDB <= 0 {
		return 0
	}
	return rng.Norm(0, b.ShadowingSigmaDB)
}
