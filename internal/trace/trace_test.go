package trace

import (
	"math"
	"testing"
	"time"

	"repro/internal/phy"
	"repro/internal/sniffer"
)

func obs(t phy.FrameType, start, dur time.Duration, amp float64) sniffer.Observation {
	return sniffer.Observation{
		Type:       t,
		Start:      start,
		End:        start + dur,
		AmplitudeV: amp,
		PowerDBm:   -40,
	}
}

func us(v int) time.Duration { return time.Duration(v) * time.Microsecond }

func TestDataFramesFilter(t *testing.T) {
	in := []sniffer.Observation{
		obs(phy.FrameData, 0, us(5), 1),
		obs(phy.FrameBeacon, us(10), us(3), 1),
		obs(phy.FrameAck, us(20), us(2), 1),
		obs(phy.FrameData, us(30), us(20), 1),
	}
	if got := len(DataFrames(in)); got != 2 {
		t.Errorf("DataFrames = %d", got)
	}
	lens := FrameLengthsUs(in)
	if len(lens) != 2 || lens[0] != 5 || lens[1] != 20 {
		t.Errorf("FrameLengthsUs = %v", lens)
	}
}

func TestFrameLengthCDF(t *testing.T) {
	var in []sniffer.Observation
	for i := 0; i < 60; i++ {
		in = append(in, obs(phy.FrameData, us(i*100), us(5), 1))
	}
	for i := 0; i < 40; i++ {
		in = append(in, obs(phy.FrameData, us(10000+i*100), us(20), 1))
	}
	c := FrameLengthCDF(in)
	// 60% of frames are ≤ 5 µs.
	if got := c.At(6); math.Abs(got-0.6) > 0.01 {
		t.Errorf("CDF(6µs) = %v", got)
	}
	if got := c.At(25); got != 1 {
		t.Errorf("CDF(25µs) = %v", got)
	}
	if got := LongFrameFraction(in); math.Abs(got-0.4) > 0.01 {
		t.Errorf("LongFrameFraction = %v", got)
	}
}

func TestBusyRatio(t *testing.T) {
	in := []sniffer.Observation{
		obs(phy.FrameData, us(0), us(25), 1.0),
		obs(phy.FrameData, us(50), us(25), 1.0),
		// Overlapping frame should not double count.
		obs(phy.FrameAck, us(10), us(25), 1.0),
		// Below threshold: ignored.
		obs(phy.FrameData, us(80), us(10), 0.001),
	}
	got := BusyRatio(in, 0, us(100), 0.01)
	// Busy: [0,35) ∪ [50,75) = 60 µs of 100.
	if math.Abs(got-0.6) > 1e-9 {
		t.Errorf("BusyRatio = %v", got)
	}
	if BusyRatio(nil, 0, us(100), 0.01) != 0 {
		t.Error("empty busy ratio")
	}
	if BusyRatio(in, us(100), us(0), 0.01) != 0 {
		t.Error("inverted window")
	}
}

func TestWindowOccupancy(t *testing.T) {
	in := []sniffer.Observation{
		obs(phy.FrameData, us(100), us(5), 1),    // window 0
		obs(phy.FrameData, us(2500), us(5), 1),   // window 2
		obs(phy.FrameBeacon, us(3500), us(5), 1), // beacon doesn't count
	}
	got := WindowOccupancy(in, 0, us(4000), us(1000))
	if math.Abs(got-0.5) > 1e-9 {
		t.Errorf("WindowOccupancy = %v, want 0.5", got)
	}
	// A frame spanning [900, 2100) touches all three 1 ms windows.
	in2 := []sniffer.Observation{obs(phy.FrameData, us(900), us(1200), 1)}
	if got := WindowOccupancy(in2, 0, us(3000), us(1000)); got != 1 {
		t.Errorf("spanning occupancy = %v", got)
	}
	// A frame fully inside window 1 marks only it.
	in3 := []sniffer.Observation{obs(phy.FrameData, us(1200), us(200), 1)}
	if got := WindowOccupancy(in3, 0, us(3000), us(1000)); math.Abs(got-1.0/3) > 1e-9 {
		t.Errorf("inside occupancy = %v", got)
	}
}

func TestPeriodicity(t *testing.T) {
	var in []sniffer.Observation
	// Beacons every 1.1 ms from src 1, noise beacons from src 2.
	for i := 0; i < 20; i++ {
		b := obs(phy.FrameBeacon, time.Duration(i)*1100*time.Microsecond, us(14), 1)
		b.Src = 1
		in = append(in, b)
		n := obs(phy.FrameBeacon, time.Duration(i)*777*time.Microsecond, us(14), 1)
		n.Src = 2
		in = append(in, n)
	}
	got := Periodicity(in, phy.FrameBeacon, 1, 0)
	if got != 1100*time.Microsecond {
		t.Errorf("Periodicity = %v", got)
	}
	// Sub-element suppression: 32 frames 22 µs apart then a repeat at
	// 102.4 ms must measure the sweep period, not the sub-element gap.
	var disc []sniffer.Observation
	for sweep := 0; sweep < 4; sweep++ {
		base := time.Duration(sweep) * 102400 * time.Microsecond
		for k := 0; k < 32; k++ {
			d := obs(phy.FrameDiscovery, base+time.Duration(k)*us(22), us(22), 1)
			d.Src = 3
			disc = append(disc, d)
		}
	}
	got = Periodicity(disc, phy.FrameDiscovery, 3, time.Millisecond)
	if got != 102400*time.Microsecond {
		t.Errorf("sweep periodicity = %v", got)
	}
	if Periodicity(nil, phy.FrameBeacon, -1, 0) != 0 {
		t.Error("empty periodicity")
	}
}

func TestCollisionEvents(t *testing.T) {
	a := obs(phy.FrameData, 0, us(5), 1)
	a.Collided = true
	b := obs(phy.FrameData, us(10), us(5), 1)
	b.Retry = true
	b.Collided = true
	c := obs(phy.FrameData, us(20), us(5), 1)
	collided, retries := CollisionEvents([]sniffer.Observation{a, b, c})
	if collided != 2 || retries != 1 {
		t.Errorf("collisions = %d retries = %d", collided, retries)
	}
}
