package sniffer

import (
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
)

// AngularProfile is the directional energy measurement of Figs. 18–20:
// received power as a function of the horn's pointing direction at one
// location.
type AngularProfile struct {
	// AnglesRad holds the pointing directions (global frame).
	AnglesRad []float64
	// PowerDBm holds the measured power per direction (-Inf when nothing
	// was received).
	PowerDBm []float64
}

// PeakAngle returns the direction of maximum incident energy.
func (p AngularProfile) PeakAngle() float64 {
	best, bestA := math.Inf(-1), 0.0
	for i, v := range p.PowerDBm {
		if v > best {
			best = v
			bestA = p.AnglesRad[i]
		}
	}
	return bestA
}

// PeakDBm returns the maximum incident power.
func (p AngularProfile) PeakDBm() float64 {
	best := math.Inf(-1)
	for _, v := range p.PowerDBm {
		if v > best {
			best = v
		}
	}
	return best
}

// Normalized returns per-direction power relative to the peak in dB
// (0 at the peak), the scale of the paper's polar plots.
func (p AngularProfile) Normalized() []float64 {
	peak := p.PeakDBm()
	out := make([]float64, len(p.PowerDBm))
	for i, v := range p.PowerDBm {
		out[i] = v - peak
	}
	return out
}

// Lobes returns the directions whose normalized power exceeds
// thresholdDB (e.g. -8 dB, the paper's plot floor) and are local maxima
// — the "lobes" the paper counts to detect reflections.
func (p AngularProfile) Lobes(thresholdDB float64) []float64 {
	norm := p.Normalized()
	n := len(norm)
	var lobes []float64
	for i := 0; i < n; i++ {
		prev := norm[(i-1+n)%n]
		next := norm[(i+1)%n]
		if norm[i] >= thresholdDB && norm[i] >= prev && norm[i] > next {
			lobes = append(lobes, p.AnglesRad[i])
		}
	}
	return lobes
}

// HasLobeTowards reports whether some lobe above thresholdDB points
// within tolRad of the given direction — how the paper attributes
// angular-profile lobes to devices or walls.
func (p AngularProfile) HasLobeTowards(dir float64, tolRad, thresholdDB float64) bool {
	for _, l := range p.Lobes(thresholdDB) {
		if math.Abs(geom.AngleDiff(l, dir)) <= tolRad {
			return true
		}
	}
	return false
}

// MeasureAngularProfile runs the live measurement procedure of §3.2: the
// sniffer's horn is rotated through nSteps directions; at each step the
// simulation runs for dwell and the average data-frame power is
// recorded. Control frames (higher power, wider patterns) are discarded
// exactly as the paper does. The scheduler advances by nSteps×dwell.
func (s *Sniffer) MeasureAngularProfile(med *sim.Medium, nSteps int, dwell sim.Time) AngularProfile {
	horn := antenna.MeasurementHorn()
	prof := AngularProfile{
		AnglesRad: make([]float64, nSteps),
		PowerDBm:  make([]float64, nSteps),
	}
	// Average linear power of link traffic. Unlike the beam-pattern
	// sweeps, the angular profiles integrate everything the link emits —
	// data, acknowledgements and beacons all reveal where energy arrives
	// from (the paper attributes RX-pointing lobes to acknowledgements).
	// Only the wide-pattern discovery sweeps are excluded.
	acc := meanPower{keep: func(o Observation) bool { return o.Type != phy.FrameDiscovery }}
	sched := med.Sched
	for i := 0; i < nSteps; i++ {
		theta := -math.Pi + 2*math.Pi*float64(i)/float64(nSteps)
		prof.AnglesRad[i] = theta
		s.SetPattern(horn, theta)
		acc.reset()
		s.dwell(sched, dwell, &acc)
		prof.PowerDBm[i] = acc.meanDBm()
	}
	return prof
}

// isDataClass filters to payload-bearing frames, mirroring the paper's
// "we ensure that we extract signal strength from data frames only"
// (used by the beam-pattern sweeps).
func isDataClass(o Observation) bool { return o.Type == phy.FrameData }

// SemicircleSweep reproduces the Fig. 2 outdoor rig: the device under
// test sits at center; the sniffer visits nPos equally spaced positions
// on a semicircle of the given radius spanning [startRad, startRad+π],
// dwelling at each and recording the mean data-frame power. It returns
// one power value per position (the measured transmit pattern of the
// device).
func (s *Sniffer) SemicircleSweep(med *sim.Medium, center geom.Vec2, radius float64, nPos int, dwell sim.Time) AngularProfile {
	horn := antenna.MeasurementHorn()
	prof := AngularProfile{
		AnglesRad: make([]float64, nPos),
		PowerDBm:  make([]float64, nPos),
	}
	acc := meanPower{keep: isDataClass}
	sched := med.Sched
	for i := 0; i < nPos; i++ {
		theta := -math.Pi/2 + math.Pi*float64(i)/float64(nPos-1)
		prof.AnglesRad[i] = theta
		pos := center.Add(geom.FromPolar(radius, theta))
		s.Move(med, pos)
		// Aim back at the device under test.
		s.SetPattern(horn, geom.NormalizeAngle(theta+math.Pi))
		acc.reset()
		s.dwell(sched, dwell, &acc)
		prof.PowerDBm[i] = acc.meanDBm()
	}
	return prof
}

// SubElementSweep measures the quasi-omni discovery patterns (Fig. 16
// method): like SemicircleSweep, but the per-position powers are split
// by discovery sub-element index, yielding one pattern per codeword.
// Returns a map from sub-element index to its measured profile.
func (s *Sniffer) SubElementSweep(med *sim.Medium, center geom.Vec2, radius float64, nPos int, dwell sim.Time) map[int]AngularProfile {
	horn := antenna.MeasurementHorn()
	sched := med.Sched
	profs := make(map[int]AngularProfile)
	ensure := func(meta int) AngularProfile {
		p, ok := profs[meta]
		if !ok {
			p = AngularProfile{
				AnglesRad: make([]float64, nPos),
				PowerDBm:  make([]float64, nPos),
			}
			for i := range p.PowerDBm {
				p.PowerDBm[i] = math.Inf(-1)
			}
			profs[meta] = p
		}
		return p
	}
	for i := 0; i < nPos; i++ {
		theta := -math.Pi/2 + math.Pi*float64(i)/float64(nPos-1)
		pos := center.Add(geom.FromPolar(radius, theta))
		s.Move(med, pos)
		s.SetPattern(horn, geom.NormalizeAngle(theta+math.Pi))
		acc := subElementPower{sums: map[int]float64{}, counts: map[int]int{}}
		s.dwell(sched, dwell, &acc)
		for meta, sum := range acc.sums {
			p := ensure(meta)
			p.AnglesRad[i] = theta
			p.PowerDBm[i] = 10 * math.Log10(sum/float64(acc.counts[meta]))
			profs[meta] = p
		}
		for meta := range profs {
			p := profs[meta]
			p.AnglesRad[i] = theta
			profs[meta] = p
		}
	}
	return profs
}

// dwell runs the scheduler for d with acc teed after the sink the
// caller attached, so the caller's sink sees every frame first and its
// errors still count as SinkDrops. The caller's sink is restored when
// the dwell ends.
func (s *Sniffer) dwell(sched *sim.Scheduler, d sim.Time, acc Sink) {
	prev := s.Sink
	if prev == nil {
		s.Sink = acc
	} else {
		s.Sink = Tee(prev, acc)
	}
	sched.Run(sched.Now() + d)
	s.Sink = prev
}

// meanPower is the per-dwell accumulator of the profile sweeps: the
// linear power of the frames keep accepts, summed in arrival order.
type meanPower struct {
	keep  func(Observation) bool
	sumMw float64
	n     int
}

// Capture implements Sink.
func (m *meanPower) Capture(o Observation) error {
	if m.keep(o) {
		m.sumMw += math.Pow(10, o.PowerDBm/10)
		m.n++
	}
	return nil
}

func (m *meanPower) reset() { m.sumMw, m.n = 0, 0 }

// meanDBm returns the mean power in dBm, -Inf when no frame was kept.
func (m *meanPower) meanDBm() float64 {
	if m.n == 0 {
		return math.Inf(-1)
	}
	return 10 * math.Log10(m.sumMw/float64(m.n))
}

// subElementPower is SubElementSweep's per-dwell accumulator: the
// linear power of discovery frames, summed per sub-element index.
type subElementPower struct {
	sums   map[int]float64
	counts map[int]int
}

// Capture implements Sink.
func (a *subElementPower) Capture(o Observation) error {
	if o.Type == phy.FrameDiscovery {
		a.sums[o.Meta] += math.Pow(10, o.PowerDBm/10)
		a.counts[o.Meta]++
	}
	return nil
}
