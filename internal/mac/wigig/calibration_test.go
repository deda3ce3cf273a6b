package wigig

import (
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/mac"
	"repro/internal/phy"
	"repro/internal/sniffer"
)

// txopMeter reconstructs TXOP bursts from a sniffer's frame stream: a
// burst opens with an RTS and runs to the end of the last CTS, data or
// ACK frame before the next RTS. Frames of one link never overlap on
// air, so the sniffer's end order is their start order.
type txopMeter struct {
	maxData, maxBurst time.Duration
	dataFrames        int
	open              bool
	start, end        time.Duration
}

func (m *txopMeter) Capture(o sniffer.Observation) error {
	switch o.Type {
	case phy.FrameRTS:
		m.close()
		m.open, m.start, m.end = true, o.Start, o.End
	case phy.FrameCTS, phy.FrameAck:
		m.end = o.End
	case phy.FrameData:
		m.end = o.End
		m.dataFrames++
		if d := o.Duration(); d > m.maxData {
			m.maxData = d
		}
	}
	return nil
}

// close ends the burst in progress; call once after the run as well.
func (m *txopMeter) close() {
	if m.open && m.end-m.start > m.maxBurst {
		m.maxBurst = m.end - m.start
	}
	m.open = false
}

// TestCalibrationTargets pins the frame-level calibration targets of
// DESIGN.md "Calibration targets (from the paper text)", §4.1 of the
// paper: "the maximum length of such bursts is 2 ms", and "the highest
// level [of aggregation] we observed corresponds to a frame duration of
// 25 µs". A saturated link watched by a sniffer for 100 ms must show no
// data frame longer than 25 µs and no TXOP burst longer than 2 ms, and
// must come close to both bounds so the checks are not vacuous. The
// range (12–18 m), Ethernet-cap (~940 Mbps) and 5 m interference targets
// are not pinned here.
func TestCalibrationTargets(t *testing.T) {
	if MaxTXOP != 2*time.Millisecond {
		t.Errorf("MaxTXOP = %v, the paper's bursts are at most 2 ms", MaxTXOP)
	}
	if MaxAggAir != 25*time.Microsecond {
		t.Errorf("MaxAggAir = %v, the paper's longest aggregate is 25 µs", MaxAggAir)
	}

	s, med, l := newLink(t, 2, 31)
	if !l.WaitAssociated(s, time.Second) {
		t.Fatal("no association")
	}
	sn := sniffer.New(med, "vubiq", geom.V(1, 0.4), antenna.OpenWaveguide(), -math.Pi/2)
	sn.SensitivityDBm = -88
	var m txopMeter
	sn.Sink = &m
	// Keep the station's queue full for the whole capture.
	var refill func()
	refill = func() {
		for i := 0; i < DefaultQueueLimit && l.Station.Send(mac.MPDU{Bytes: 1500}); i++ {
		}
		s.After(50*time.Microsecond, refill)
	}
	refill()
	s.Run(s.Now() + 100*time.Millisecond)
	m.close()
	t.Logf("%d data frames, longest %v; longest TXOP burst %v", m.dataFrames, m.maxData, m.maxBurst)

	if m.dataFrames < 100 {
		t.Fatalf("only %d data frames observed", m.dataFrames)
	}
	if m.maxData > MaxAggAir {
		t.Errorf("data frame of %v exceeds the 25 µs aggregate", m.maxData)
	}
	if m.maxData < 20*time.Microsecond {
		t.Errorf("saturated link's longest data frame is %v, want near 25 µs", m.maxData)
	}
	if m.maxBurst > MaxTXOP {
		t.Errorf("TXOP burst of %v exceeds 2 ms", m.maxBurst)
	}
	if m.maxBurst < 1500*time.Microsecond {
		t.Errorf("saturated link's longest burst is %v, want near 2 ms", m.maxBurst)
	}
}
