package trace

import (
	"testing"
	"testing/quick"
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
)

// genObs builds a bounded random observation list from fuzz input.
func genObs(starts []uint16, durs []uint8, amps []uint8) []sniffer.Observation {
	n := len(starts)
	if len(durs) < n {
		n = len(durs)
	}
	if len(amps) < n {
		n = len(amps)
	}
	if n > 150 {
		n = 150
	}
	out := make([]sniffer.Observation, 0, n)
	for i := 0; i < n; i++ {
		start := time.Duration(starts[i]) * time.Microsecond
		dur := time.Duration(durs[i]%30+1) * time.Microsecond
		out = append(out, sniffer.Observation{
			Type:       phy.FrameData,
			Start:      start,
			End:        start + dur,
			AmplitudeV: float64(amps[i]) / 255,
		})
	}
	return out
}

// TestBusyRatioBoundsProperty: the busy ratio is always within [0,1],
// and lowering the threshold never lowers it.
func TestBusyRatioBoundsProperty(t *testing.T) {
	f := func(starts []uint16, durs []uint8, amps []uint8, thrA, thrB uint8) bool {
		obs := genObs(starts, durs, amps)
		window := 70 * time.Millisecond
		lo, hi := float64(thrA)/255, float64(thrB)/255
		if lo > hi {
			lo, hi = hi, lo
		}
		rLo := BusyRatio(obs, 0, window, lo)
		rHi := BusyRatio(obs, 0, window, hi)
		if rLo < 0 || rLo > 1 || rHi < 0 || rHi > 1 {
			return false
		}
		return rLo >= rHi-1e-12
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestWindowOccupancyBoundsProperty: occupancy is within [0,1] and never
// below the busy ratio computed over the same span with zero threshold
// divided by... simply: it is monotone in the observation set.
func TestWindowOccupancyBoundsProperty(t *testing.T) {
	f := func(starts []uint16, durs []uint8, amps []uint8) bool {
		obs := genObs(starts, durs, amps)
		span := 70 * time.Millisecond
		occ := WindowOccupancy(obs, 0, span, time.Millisecond)
		if occ < 0 || occ > 1 {
			return false
		}
		// Adding observations never decreases occupancy.
		if len(obs) > 1 {
			occHalf := WindowOccupancy(obs[:len(obs)/2], 0, span, time.Millisecond)
			if occHalf > occ+1e-12 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestLongFrameFractionBoundsProperty.
func TestLongFrameFractionBoundsProperty(t *testing.T) {
	f := func(starts []uint16, durs []uint8, amps []uint8) bool {
		obs := genObs(starts, durs, amps)
		frac := LongFrameFraction(obs)
		return frac >= 0 && frac <= 1
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 80}); err != nil {
		t.Error(err)
	}
}

// TestPeriodMeterMatchesPeriodicityProperty: over random captures,
// PeriodMeter's streaming interval equals the slice oracle exactly for
// every class, for a fixed source and for any source (src = -1), with
// and without compound-frame suppression (minGap = 0 included).
func TestPeriodMeterMatchesPeriodicityProperty(t *testing.T) {
	classes := []phy.FrameType{phy.FrameData, phy.FrameAck, phy.FrameBeacon, phy.FrameRTS}
	gaps := []time.Duration{0, 5 * time.Microsecond, 50 * time.Microsecond, time.Millisecond}
	f := func(seed uint16, n uint8, classIdx, gapIdx uint8, srcRaw int8) bool {
		obs := randomCapture(uint64(seed), int(n))
		class := classes[int(classIdx)%len(classes)]
		minGap := gaps[int(gapIdx)%len(gaps)]
		src := int(srcRaw) % 5 // -4…4: negatives mean any source
		if src < 0 {
			src = -1
		}
		m := NewPeriodMeter(class, src, minGap)
		for _, o := range obs {
			if err := m.Capture(o); err != nil {
				return false
			}
		}
		return m.Interval() == Periodicity(obs, class, src, minGap)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}
