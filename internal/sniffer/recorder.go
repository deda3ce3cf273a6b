package sniffer

import (
	"math"
	"sort"

	"repro/internal/sim"
)

// Recorder is the opt-in Sink for consumers that need raw windows of
// observations: scope excerpts, synthesized envelopes, a sweep's
// individual frames. Everything else folds observations into a
// streaming analysis and never holds them.
type Recorder struct {
	// Obs holds the recorded observations in arrival (frame-end) order.
	Obs []Observation
	// Horizon bounds the history: when positive, observations whose End
	// is older than Horizon before the newest frame are pruned as new
	// frames arrive. Zero keeps everything.
	Horizon sim.Time
	// stale is the length of the Obs prefix already identified as older
	// than the horizon (compacted away once it dominates).
	stale int
}

// Capture implements Sink.
func (r *Recorder) Capture(o Observation) error {
	r.Obs = append(r.Obs, o)
	if r.Horizon > 0 {
		r.prune(o.End - r.Horizon)
	}
	return nil
}

// prune drops observations that ended before cutoff. Obs is appended in
// frame-end order, so the stale prefix is contiguous; each entry is
// examined once and compaction waits until the stale prefix dominates,
// keeping the cost amortized-constant per frame.
func (r *Recorder) prune(cutoff sim.Time) {
	for r.stale < len(r.Obs) && r.Obs[r.stale].End < cutoff {
		r.stale++
	}
	if r.stale*2 < len(r.Obs) {
		return
	}
	r.Obs = append(r.Obs[:0], r.Obs[r.stale:]...)
	r.stale = 0
}

// Window returns the observations overlapping [from, to), sorted by
// start time.
func (r *Recorder) Window(from, to sim.Time) []Observation {
	var out []Observation
	for _, o := range r.Obs {
		if o.End > from && o.Start < to {
			out = append(out, o)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Start < out[j].Start })
	return out
}

// Envelope synthesizes the undersampled scope trace of [from, to) at the
// given sample rate: the amplitude at each sample instant is the root
// sum of squares of all frames on air (plus nothing when idle). This is
// the raw material of the paper's Figs. 3, 8, 15 and 21.
func (r *Recorder) Envelope(from, to sim.Time, sampleRate float64) []float64 {
	n := int((to - from).Seconds() * sampleRate)
	if n <= 0 {
		return nil
	}
	out := make([]float64, n)
	win := r.Window(from, to)
	for i := range out {
		t := from + sim.Time(float64(to-from)*float64(i)/float64(n))
		sum := 0.0
		for _, o := range win {
			if o.Start <= t && t < o.End {
				sum += o.AmplitudeV * o.AmplitudeV
			}
		}
		out[i] = math.Sqrt(sum)
	}
	return out
}
