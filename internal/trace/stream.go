// The trace analyses as Sink implementations that fold each observation
// into a running metric as it is captured, so experiment drivers need
// not retain the observation slice. A one-hour capture analyses in the
// same fixed memory as a one-millisecond one.
//
// Sniffer sinks receive observations in frame-END order (the sniffer
// classifies a frame when it leaves the air). Metrics that need
// start-ordered intervals — the busy-time union — route arrivals through
// a StartOrderer, which buffers at most one reorder horizon of frames.
package trace

import (
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
	"repro/internal/stats"
)

// DefaultReorderHorizon bounds how far an observation's start may lag
// behind the latest end seen — i.e. the maximum frame air time the
// streaming analyses must tolerate. The longest frames on either system
// are the ≈180 µs WiHD video frames; 1 ms leaves an order of magnitude
// of slack for pathological overlap chains.
const DefaultReorderHorizon = time.Millisecond

// obsHeap is a min-heap of observations ordered by start time. The
// sift loops are written out over the concrete type so that no
// observation is boxed into an interface; they compare and move exactly
// as container/heap's swap-based up and down do (a moving hole in place
// of swaps), so observations with equal Start leave in the same order
// container/heap would release them.
type obsHeap []sniffer.Observation

// push appends o and sifts it up into place.
func (h *obsHeap) push(o sniffer.Observation) {
	*h = append(*h, o)
	s := *h
	j := len(s) - 1
	for j > 0 {
		i := (j - 1) / 2
		if !(o.Start < s[i].Start) {
			break
		}
		s[j] = s[i]
		j = i
	}
	s[j] = o
}

// pop removes and returns the earliest-starting observation: the last
// element moves to the root and sifts down over the first n-1 slots.
func (h *obsHeap) pop() sniffer.Observation {
	s := *h
	n := len(s) - 1
	top := s[0]
	o := s[n]
	i := 0
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && s[r].Start < s[c].Start {
			c = r
		}
		if !(s[c].Start < o.Start) {
			break
		}
		s[i] = s[c]
		i = c
	}
	s[i] = o
	*h = s[:n]
	return top
}

// StartOrderer converts the sniffer's end-ordered observation stream
// into a start-ordered one. It relies on the horizon bound: once the
// stream has progressed to end time E, every future observation starts
// at or after E − horizon, so anything buffered before that point can be
// released in start order. Memory is bounded by the number of frames
// that fit in one horizon, not by capture length.
type StartOrderer struct {
	horizon time.Duration
	emit    func(sniffer.Observation)
	heap    obsHeap
	maxEnd  time.Duration
}

// NewStartOrderer returns an orderer delivering to emit. A horizon ≤ 0
// uses DefaultReorderHorizon.
func NewStartOrderer(horizon time.Duration, emit func(sniffer.Observation)) *StartOrderer {
	if horizon <= 0 {
		horizon = DefaultReorderHorizon
	}
	return &StartOrderer{horizon: horizon, emit: emit}
}

// Capture buffers the observation and releases everything that can no
// longer be preceded by a future arrival.
func (so *StartOrderer) Capture(o sniffer.Observation) error {
	so.heap.push(o)
	if o.End > so.maxEnd {
		so.maxEnd = o.End
	}
	for len(so.heap) > 0 && so.heap[0].Start <= so.maxEnd-so.horizon {
		so.emit(so.heap.pop())
	}
	return nil
}

// Flush releases all buffered observations in start order. Call once at
// the end of the capture.
func (so *StartOrderer) Flush() {
	for len(so.heap) > 0 {
		so.emit(so.heap.pop())
	}
}

// BusyMeter is the §4.4 link-utilization metric: the fraction of the
// capture during which at least one frame above the amplitude threshold
// was on air ("threshold based detection approach to calculate the
// ratio of idle channel time"). It accumulates the union of
// above-threshold frame intervals as they are captured. Attach it as a
// sniffer sink, run the scenario, then call Ratio once with the capture
// end time.
type BusyMeter struct {
	// From clips the analysis window on the left; observations ending
	// before From are ignored. Set it to the capture start before the
	// run.
	From time.Duration

	threshold float64
	ord       *StartOrderer
	open      bool
	curA      time.Duration
	curB      time.Duration
	busy      time.Duration
}

// NewBusyMeter returns a meter using the given amplitude threshold
// (volts) for busy detection; frames below it are idle air. horizon ≤ 0
// uses DefaultReorderHorizon.
func NewBusyMeter(thresholdV float64, horizon time.Duration) *BusyMeter {
	m := &BusyMeter{threshold: thresholdV}
	m.ord = NewStartOrderer(horizon, m.merge)
	return m
}

// Capture implements sniffer.Sink.
func (m *BusyMeter) Capture(o sniffer.Observation) error {
	if o.AmplitudeV < m.threshold || o.End <= m.From {
		return nil
	}
	return m.ord.Capture(o)
}

// merge consumes start-ordered intervals — the classic sorted sweep.
func (m *BusyMeter) merge(o sniffer.Observation) {
	a, b := o.Start, o.End
	if a < m.From {
		a = m.From
	}
	if !m.open {
		m.open, m.curA, m.curB = true, a, b
		return
	}
	if a <= m.curB {
		if b > m.curB {
			m.curB = b
		}
		return
	}
	m.busy += m.curB - m.curA
	m.curA, m.curB = a, b
}

// Ratio drains the reorder buffer and returns the busy fraction of
// [From, to). It finalizes the meter: feed no further observations.
// to must be at or past the end of every captured frame (the scenario
// clock when the run stopped) — frames still in the air at to have not
// reached the sink, so no clipping on the right is needed.
func (m *BusyMeter) Ratio(to time.Duration) float64 {
	m.ord.Flush()
	if m.open {
		m.busy += m.curB - m.curA
		m.open = false
	}
	if to <= m.From {
		return 0
	}
	return float64(m.busy) / float64(to-m.From)
}

// OccupancyMeter is the §4.1 "medium usage" metric of Fig. 11: the
// fraction of fixed-size trace windows that contain at least one data
// frame (each window models one oscilloscope capture). It marks the
// windows each data frame touches as the frames are captured. Windows
// are indexed from From; frame-end order needs no reordering because
// window marking is commutative.
type OccupancyMeter struct {
	// From is the capture start (window 0 begins here).
	From time.Duration
	// Window is the trace-window size (one oscilloscope capture).
	Window time.Duration

	hit []bool
}

// NewOccupancyMeter returns a meter over windows of the given size
// starting at from.
func NewOccupancyMeter(from, window time.Duration) *OccupancyMeter {
	return &OccupancyMeter{From: from, Window: window}
}

// Capture implements sniffer.Sink.
func (m *OccupancyMeter) Capture(o sniffer.Observation) error {
	if o.Type != phy.FrameData || m.Window <= 0 || o.End <= m.From {
		return nil
	}
	i0 := int((max(o.Start, m.From) - m.From) / m.Window)
	i1 := int((o.End - m.From - 1) / m.Window)
	for i1 >= len(m.hit) {
		m.hit = append(m.hit, false)
	}
	for i := i0; i <= i1; i++ {
		if i >= 0 {
			m.hit[i] = true
		}
	}
	return nil
}

// Occupancy returns the fraction of whole windows inside [From, to)
// that contained at least one data frame.
func (m *OccupancyMeter) Occupancy(to time.Duration) float64 {
	if to <= m.From || m.Window <= 0 {
		return 0
	}
	n := int((to - m.From) / m.Window)
	if n == 0 {
		return 0
	}
	count := 0
	for i, h := range m.hit {
		if i >= n {
			break
		}
		if h {
			count++
		}
	}
	return float64(count) / float64(n)
}

// DataSampler collects the per-data-frame quantities the load-sweep
// figures need — air times for the Fig. 9 CDFs, MPDU counts for the
// §4.1 aggregation check — without retaining the observations
// themselves (8 bytes per frame instead of a full record).
type DataSampler struct {
	// LengthsUs are the data-frame air times in microseconds.
	LengthsUs []float64

	mpdus int
}

// Capture implements sniffer.Sink.
func (s *DataSampler) Capture(o sniffer.Observation) error {
	if o.Type != phy.FrameData {
		return nil
	}
	s.LengthsUs = append(s.LengthsUs, float64(o.Duration())/float64(time.Microsecond))
	s.mpdus += o.MPDUs
	return nil
}

// Count returns the number of data frames sampled.
func (s *DataSampler) Count() int { return len(s.LengthsUs) }

// MeanMPDUs returns the mean aggregation level.
func (s *DataSampler) MeanMPDUs() float64 {
	if len(s.LengthsUs) == 0 {
		return 0
	}
	return float64(s.mpdus) / float64(len(s.LengthsUs))
}

// LongFraction returns the fraction of sampled frames longer than
// LongFrameThreshold (Fig. 10's y-axis).
func (s *DataSampler) LongFraction() float64 {
	if len(s.LengthsUs) == 0 {
		return 0
	}
	th := float64(LongFrameThreshold) / float64(time.Microsecond)
	long := 0
	for _, v := range s.LengthsUs {
		if v > th {
			long++
		}
	}
	return float64(long) / float64(len(s.LengthsUs))
}

// CollisionCounter counts data frames that suffered interference overlap
// and retransmissions — the annotations of Fig. 21.
type CollisionCounter struct {
	// Collided and Retries count data frames with the respective flag.
	Collided int
	Retries  int
}

// Capture implements sniffer.Sink.
func (c *CollisionCounter) Capture(o sniffer.Observation) error {
	if o.Type != phy.FrameData {
		return nil
	}
	if o.Collided {
		c.Collided++
	}
	if o.Retry {
		c.Retries++
	}
	return nil
}

// PeriodMeter is the Table 1 measurement: the repeat interval of one
// frame class from one source (any source when src < 0), estimated by
// the median gap between consecutive accepted starts. A frame starting
// less than minGap after the last accepted start is part of the same
// compound frame (the discovery sweep's sub-elements) and is skipped.
// Only the accepted starts are kept, one per period.
type PeriodMeter struct {
	class  phy.FrameType
	src    int
	minGap time.Duration
	starts []time.Duration
}

// NewPeriodMeter returns a meter for frames of class from src.
func NewPeriodMeter(class phy.FrameType, src int, minGap time.Duration) *PeriodMeter {
	return &PeriodMeter{class: class, src: src, minGap: minGap}
}

// Capture implements sniffer.Sink.
func (m *PeriodMeter) Capture(o sniffer.Observation) error {
	if o.Type != m.class || (m.src >= 0 && o.Src != m.src) {
		return nil
	}
	if n := len(m.starts); n > 0 && o.Start-m.starts[n-1] < m.minGap {
		return nil
	}
	m.starts = append(m.starts, o.Start)
	return nil
}

// Interval returns the median gap between accepted starts, 0 when fewer
// than two frames were accepted.
func (m *PeriodMeter) Interval() time.Duration {
	if len(m.starts) < 2 {
		return 0
	}
	gaps := make([]float64, 0, len(m.starts)-1)
	for i := 1; i < len(m.starts); i++ {
		gaps = append(gaps, float64(m.starts[i]-m.starts[i-1]))
	}
	return time.Duration(stats.Median(gaps))
}
