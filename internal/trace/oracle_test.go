package trace

import (
	"sort"
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
	"repro/internal/stats"
)

// The whole-slice forms of the streaming analyses, written the direct
// way over a retained observation list. They are the oracles the meters
// in stream.go are checked against (stream_test.go, property_test.go).

// DataFrames filters observations to payload-class frames.
func DataFrames(obs []sniffer.Observation) []sniffer.Observation {
	var out []sniffer.Observation
	for _, o := range obs {
		if o.Type == phy.FrameData {
			out = append(out, o)
		}
	}
	return out
}

// FrameLengthsUs returns the duration of each data frame in
// microseconds — the sample behind the Fig. 9 CDFs.
func FrameLengthsUs(obs []sniffer.Observation) []float64 {
	data := DataFrames(obs)
	out := make([]float64, 0, len(data))
	for _, o := range data {
		out = append(out, float64(o.Duration())/float64(time.Microsecond))
	}
	return out
}

// FrameLengthCDF builds the empirical CDF of data-frame air-times in µs.
func FrameLengthCDF(obs []sniffer.Observation) *stats.CDF {
	return stats.NewCDF(FrameLengthsUs(obs))
}

// LongFrameFraction returns the fraction of data frames longer than
// LongFrameThreshold.
func LongFrameFraction(obs []sniffer.Observation) float64 {
	data := DataFrames(obs)
	if len(data) == 0 {
		return 0
	}
	long := 0
	for _, o := range data {
		if o.Duration() > LongFrameThreshold {
			long++
		}
	}
	return float64(long) / float64(len(data))
}

// interval is a half-open busy span.
type interval struct{ a, b time.Duration }

// mergeIntervals unions overlapping spans and returns total covered time.
func mergeIntervals(iv []interval) time.Duration {
	if len(iv) == 0 {
		return 0
	}
	sort.Slice(iv, func(i, j int) bool { return iv[i].a < iv[j].a })
	total := time.Duration(0)
	cur := iv[0]
	for _, x := range iv[1:] {
		if x.a <= cur.b {
			if x.b > cur.b {
				cur.b = x.b
			}
			continue
		}
		total += cur.b - cur.a
		cur = x
	}
	total += cur.b - cur.a
	return total
}

// BusyRatio is BusyMeter's oracle: the fraction of [from, to) during
// which at least one frame above amplitudeThreshold volts was on air.
func BusyRatio(obs []sniffer.Observation, from, to time.Duration, amplitudeThreshold float64) float64 {
	if to <= from {
		return 0
	}
	var iv []interval
	for _, o := range obs {
		if o.AmplitudeV < amplitudeThreshold {
			continue
		}
		a, b := o.Start, o.End
		if b <= from || a >= to {
			continue
		}
		iv = append(iv, interval{max(a, from), min(b, to)})
	}
	return float64(mergeIntervals(iv)) / float64(to-from)
}

// WindowOccupancy is OccupancyMeter's oracle: the fraction of
// fixed-size windows in [from, to) that contain at least one data frame.
func WindowOccupancy(obs []sniffer.Observation, from, to, window time.Duration) float64 {
	if to <= from || window <= 0 {
		return 0
	}
	n := int((to - from) / window)
	if n == 0 {
		return 0
	}
	hit := make([]bool, n)
	for _, o := range DataFrames(obs) {
		if o.End <= from || o.Start >= to {
			continue
		}
		i0 := int((max(o.Start, from) - from) / window)
		i1 := int((min(o.End, to) - from - 1) / window)
		for i := i0; i <= i1 && i < n; i++ {
			if i >= 0 {
				hit[i] = true
			}
		}
	}
	count := 0
	for _, h := range hit {
		if h {
			count++
		}
	}
	return float64(count) / float64(n)
}

// CollisionEvents is CollisionCounter's oracle: the data frames that
// suffered interference overlap, and the retransmissions.
func CollisionEvents(obs []sniffer.Observation) (collided, retries int) {
	for _, o := range DataFrames(obs) {
		if o.Collided {
			collided++
		}
		if o.Retry {
			retries++
		}
	}
	return collided, retries
}
