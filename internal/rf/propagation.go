// Package rf implements 60 GHz radio propagation: free-space path loss,
// oxygen absorption, material-dependent specular reflections up to second
// order (image method), and link-budget arithmetic. It is the channel
// substrate underneath the simulated WiGig and WiHD devices.
//
// The paper's reflection analysis (Section 4.3) shows that, contrary to
// common 60 GHz assumptions, first- and even second-order wall
// reflections carry enough energy to both extend coverage (Fig. 20, a
// blocked-LOS link still achieving 550 Mbps) and cause inter-system
// interference (Fig. 23). The tracer in this package is what makes those
// effects appear in simulation.
package rf

import (
	"math"

	"repro/internal/geom"
)

// SpeedOfLight in meters per second.
const SpeedOfLight = 299_792_458.0

// Channel center frequencies used by the devices under test (Section 3.1):
// both the D5000 and the Air-3c operate on 60.48 and 62.64 GHz with
// 1.76 GHz of modulated bandwidth.
const (
	FreqChannel2Hz = 60.48e9
	FreqChannel3Hz = 62.64e9
	BandwidthHz    = 1.76e9
)

// Wavelength returns the carrier wavelength in meters.
func Wavelength(freqHz float64) float64 { return SpeedOfLight / freqHz }

// minPathDistance guards the free-space formula against the near-field
// singularity; distances below this are clamped.
const minPathDistance = 0.05

// FSPLdB returns the free-space path loss in dB over distance d meters at
// frequency f Hz: 20·log10(4πdf/c).
func FSPLdB(d, freqHz float64) float64 {
	if d < minPathDistance {
		d = minPathDistance
	}
	return 20 * math.Log10(4*math.Pi*d*freqHz/SpeedOfLight)
}

// oxygenTable holds specific attenuation in dB/km at sea level around the
// 60 GHz oxygen absorption peak (ITU-R P.676 shape, coarsely sampled).
var oxygenTable = []struct {
	freqGHz float64
	dBPerKm float64
}{
	{55, 4}, {56, 6}, {57, 9}, {58, 12}, {59, 14},
	{60, 15.5}, {60.48, 15.2}, {61, 14.5}, {62, 13.5},
	{62.64, 13.0}, {63, 12.5}, {64, 11}, {65, 9}, {66, 7.5}, {67, 6},
}

// OxygenAbsorptionDBPerKm returns the specific attenuation of atmospheric
// oxygen at the given frequency, linearly interpolated from an ITU-R
// P.676-shaped table. Outside the table range the edge values are used.
func OxygenAbsorptionDBPerKm(freqHz float64) float64 {
	g := freqHz / 1e9
	t := oxygenTable
	if g <= t[0].freqGHz {
		return t[0].dBPerKm
	}
	for i := 1; i < len(t); i++ {
		if g <= t[i].freqGHz {
			f0, f1 := t[i-1].freqGHz, t[i].freqGHz
			v0, v1 := t[i-1].dBPerKm, t[i].dBPerKm
			return v0 + (v1-v0)*(g-f0)/(f1-f0)
		}
	}
	return t[len(t)-1].dBPerKm
}

// AtmosphericLossDB returns the oxygen absorption over d meters.
func AtmosphericLossDB(d, freqHz float64) float64 {
	return OxygenAbsorptionDBPerKm(freqHz) * d / 1000
}

// NoiseFloorDBm returns thermal noise power kTB over the given bandwidth
// plus the receiver noise figure, in dBm.
func NoiseFloorDBm(bandwidthHz, noiseFigureDB float64) float64 {
	return -174 + 10*math.Log10(bandwidthHz) + noiseFigureDB
}

// Path is one propagation path between a transmitter and a receiver.
type Path struct {
	// Points traces the path geometrically: TX, any reflection points in
	// order, then RX.
	Points []geom.Vec2
	// LossDB is the total propagation loss along the path in dB: free
	// space over the unfolded length, oxygen absorption, reflection
	// losses, and any penetration losses from non-blocking obstacles.
	// It excludes antenna gains, which depend on the beam patterns in use.
	LossDB float64
	// AoD is the angle (radians, global frame) at which the path departs
	// the transmitter.
	AoD float64
	// AoA is the angle from which the path arrives at the receiver, i.e.
	// the direction the receiver would point a horn to capture it. The
	// paper's angular profiles (Figs. 18–20) are histograms of exactly
	// this quantity weighted by path power.
	AoA float64
	// Length is the unfolded path length in meters.
	Length float64
	// Order counts reflections: 0 for line of sight.
	Order int
}

// Delay returns the propagation delay along the path.
func (p Path) Delay() float64 { return p.Length / SpeedOfLight }
