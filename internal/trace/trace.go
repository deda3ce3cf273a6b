// Package trace implements the paper's trace analyses — the Matlab
// post-processing of Section 3.2 — over sniffer observations. Each
// analysis is a sniffer.Sink that folds observations in as they are
// captured (stream.go): the §4.4 busy-time ratio (BusyMeter), the §4.1
// "traces containing data frames" occupancy (OccupancyMeter), data-frame
// lengths for the Fig. 9 CDFs and the Fig. 10 long-frame share
// (DataSampler), the Fig. 21 collision and retry counts
// (CollisionCounter), and the Table 1 repeat intervals (PeriodMeter).
// No analysis needs the sniffer to retain observations; a consumer that
// wants raw frames attaches a sniffer.Recorder.
package trace

import "time"

// LongFrameThreshold splits the paper's bimodal frame-length
// distribution: frames of ≈5 µs are single MPDUs, frames above are
// aggregates ("longer than ≈5 µs", Fig. 10).
const LongFrameThreshold = 8 * time.Microsecond
