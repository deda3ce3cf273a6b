// Package trace implements the paper's trace analyses — the Matlab
// post-processing of Section 3.2 — over sniffer observations. Each
// analysis is a sniffer.Sink that folds observations in as they are
// captured (stream.go): the §4.4 busy-time ratio (BusyMeter), the §4.1
// "traces containing data frames" occupancy (OccupancyMeter), data-frame
// lengths for the Fig. 9 CDFs and the Fig. 10 long-frame share
// (DataSampler), and the Fig. 21 collision and retry counts
// (CollisionCounter). Periodicity estimates the Table 1 repeat intervals
// from a retained observation slice.
package trace

import (
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
	"repro/internal/stats"
)

// LongFrameThreshold splits the paper's bimodal frame-length
// distribution: frames of ≈5 µs are single MPDUs, frames above are
// aggregates ("longer than ≈5 µs", Fig. 10).
const LongFrameThreshold = 8 * time.Microsecond

// Periodicity estimates the repeat interval of a frame class by the
// median gap between consecutive starts — the Table 1 measurement.
// Frames closer than minGap are treated as parts of one compound frame
// (the discovery sweep's sub-elements).
func Periodicity(obs []sniffer.Observation, class phy.FrameType, src int, minGap time.Duration) time.Duration {
	var starts []time.Duration
	for _, o := range obs {
		if o.Type != class {
			continue
		}
		if src >= 0 && o.Src != src {
			continue
		}
		if n := len(starts); n > 0 && o.Start-starts[n-1] < minGap {
			continue
		}
		starts = append(starts, o.Start)
	}
	if len(starts) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(starts)-1)
	for i := 1; i < len(starts); i++ {
		gaps = append(gaps, float64(starts[i]-starts[i-1]))
	}
	return time.Duration(stats.Median(gaps))
}
