// Package sniffer models the paper's measurement instrument: a Vubiq
// 60 GHz down-converter with either a 25 dBi horn or an open waveguide,
// feeding an oscilloscope that undersamples the analog envelope
// (Section 3.1). The real setup cannot decode frames — all of the
// paper's trace analyses work from frame timing and amplitude alone —
// so the sniffer reports exactly that: per-frame observations with
// received power, start/end time, and collision annotations.
//
// A Sniffer keeps nothing: it hands each observation to its Sink, the
// streaming analyses of the trace package, a TraceWriter, or the
// per-dwell accumulators of the profile sweeps. A consumer that needs a
// raw window of observations, such as a scope excerpt or its synthesized
// envelope, attaches a Recorder.
package sniffer

import (
	"math"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
)

// Observation is one overheard frame: what the oscilloscope trace shows
// after the paper's offline Matlab processing (timing + amplitude), with
// ground-truth annotations alongside for validation.
type Observation struct {
	// Start and End bound the frame on air.
	Start, End sim.Time
	// PowerDBm is the received signal power at the sniffer.
	PowerDBm float64
	// AmplitudeV is the envelope amplitude in volts, as the scope
	// displays it (√power with the frontend's fixed conversion gain).
	AmplitudeV float64
	// Type, Src, Meta, MPDUs mirror the frame's ground truth. The
	// analyses in the trace package deliberately avoid these fields
	// except where the paper also had side information (e.g. device
	// positions for separating link directions by amplitude).
	Type  phy.FrameType
	Src   int
	Meta  int
	MPDUs int
	// Retry and Collided annotate loss events (used to validate the
	// Fig. 21 effects, not by the analyses themselves).
	Retry    bool
	Collided bool
}

// Duration returns the frame's air time.
func (o Observation) Duration() sim.Time { return o.End - o.Start }

// referencePowerDBm maps received power to scope volts: -30 dBm ≡ 1 V at
// the ADC after the frontend's conversion gain.
const referencePowerDBm = -30

// AmplitudeFromPower converts dBm to envelope volts.
func AmplitudeFromPower(dbm float64) float64 {
	return math.Pow(10, (dbm-referencePowerDBm)/20)
}

// Sink consumes observations as they are captured. Implementations
// include TraceWriter (streaming capture files) and the trace package's
// streaming aggregators; sinks run synchronously on the scheduler
// goroutine and must not block.
type Sink interface {
	Capture(Observation) error
}

// SinkFunc adapts a function to the Sink interface.
type SinkFunc func(Observation) error

// Capture implements Sink.
func (f SinkFunc) Capture(o Observation) error { return f(o) }

// Tee fans each observation out to every sink in order. The first error
// per observation is returned (remaining sinks still receive it).
func Tee(sinks ...Sink) Sink {
	return SinkFunc(func(o Observation) error {
		var first error
		for _, s := range sinks {
			if err := s.Capture(o); err != nil && first == nil {
				first = err
			}
		}
		return first
	})
}

// CaptureStats count what the instrument saw and where it went.
type CaptureStats struct {
	// Captured is the total observations above sensitivity, whether or
	// not a sink was attached.
	Captured uint64
	// SinkDrops counts observations the sink rejected.
	SinkDrops uint64
}

// Sniffer is a receive-only radio that reports every frame above its
// sensitivity to its Sink, in frame-end order.
type Sniffer struct {
	radio *sim.Radio
	// SensitivityDBm drops frames weaker than this (the scope's noise
	// floor); default -75 dBm.
	SensitivityDBm float64
	// GainOffsetDB models the adjustable receiver gain; the paper adds
	// +10 dB when measuring the rotated dock's weak patterns (§4.2).
	GainOffsetDB float64
	// Capturing can be toggled to pause the capture.
	Capturing bool
	// Sink, when non-nil, receives every observation at capture time.
	// Without one, captured frames are only counted.
	Sink Sink
	// Stats counts captured observations and sink drops.
	Stats CaptureStats
	// SinkErr records the first error the sink returned.
	SinkErr error
}

// New mounts a sniffer at pos with the given antenna pattern oriented
// towards boresight (radians). Use antenna.MeasurementHorn() for beam
// pattern work or antenna.OpenWaveguide() for protocol analysis.
func New(med *sim.Medium, name string, pos geom.Vec2, pat antenna.Pattern, boresight float64) *Sniffer {
	sn := &Sniffer{SensitivityDBm: -75, Capturing: true}
	sn.radio = med.AddRadio(&sim.Radio{
		Name:           name,
		Pos:            pos,
		ListenFloorDBm: -95,
	})
	sn.SetPattern(pat, boresight)
	sn.radio.Handler = sim.HandlerFunc(sn.onFrame)
	return sn
}

// Radio exposes the underlying radio.
func (s *Sniffer) Radio() *sim.Radio { return s.radio }

// SetPattern re-aims the sniffer (the paper physically rotates the
// Vubiq between measurement positions). A nil pattern selects isotropic
// reception.
func (s *Sniffer) SetPattern(pat antenna.Pattern, boresight float64) {
	if pat == nil {
		pat = antenna.Isotropic{}
	}
	s.radio.SetRxPattern(antenna.Oriented{Pattern: pat, Boresight: boresight}.GainFunc())
}

// Move relocates the sniffer, invalidating only the channel-cache pairs
// that involve its radio — every other link's ray-traced paths survive
// the move (the paper's Fig. 18/19 methodology repositions the Vubiq six
// times through an otherwise static room).
func (s *Sniffer) Move(med *sim.Medium, pos geom.Vec2) {
	s.radio.Pos = pos
	med.InvalidateRadio(s.radio.ID)
}

// Reset clears the capture counters and the sink error. The sink is
// left attached.
func (s *Sniffer) Reset() {
	s.Stats = CaptureStats{}
	s.SinkErr = nil
}

func (s *Sniffer) onFrame(f phy.Frame, rx sim.Reception) {
	if !s.Capturing {
		return
	}
	p := rx.PowerDBm + s.GainOffsetDB
	if p < s.SensitivityDBm {
		return
	}
	o := Observation{
		Start:      rx.Start,
		End:        rx.End,
		PowerDBm:   p,
		AmplitudeV: AmplitudeFromPower(p),
		Type:       f.Type,
		Src:        f.Src,
		Meta:       f.Meta,
		MPDUs:      f.MPDUs,
		Retry:      f.Retry,
		Collided:   rx.Collided,
	}
	s.Stats.Captured++
	if s.Sink != nil {
		if err := s.Sink.Capture(o); err != nil {
			s.Stats.SinkDrops++
			if s.SinkErr == nil {
				s.SinkErr = err
			}
		}
	}
}
