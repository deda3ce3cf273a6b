package phy

import (
	"math"
	"strings"
	"testing"
	"testing/quick"
	"time"
)

func TestTableMonotone(t *testing.T) {
	// Rates and thresholds must both increase along the data ladder.
	for m := MCS2; m <= MCS12; m++ {
		if m.RateBps() <= (m - 1).RateBps() {
			t.Errorf("rate not increasing at %v", m)
		}
		if m.Lookup().MinSNRdB <= (m - 1).Lookup().MinSNRdB {
			t.Errorf("threshold not increasing at %v", m)
		}
	}
}

// TestStandardRates pins the whole MCS table and the SC PHY timing
// constants to IEEE 802.11ad (control PHY and SC PHY; SaiShankar et al.,
// PAPERS.md). Each data rate is also derived from first principles: the
// 1760 Mchip/s SC chip rate, 448 data chips per 512-chip block, the
// constellation's bits per symbol, the LDPC code rate, and MCS1's
// two-fold repetition.
func TestStandardRates(t *testing.T) {
	cases := []struct {
		m        MCS
		mbps     float64
		mod      string
		rate     string
		bits     float64 // bits per symbol
		num, den float64 // code rate
		rep      float64 // repetition factor
	}{
		{MCS1, 385, "π/2-BPSK", "1/2", 1, 1, 2, 2},
		{MCS2, 770, "π/2-BPSK", "1/2", 1, 1, 2, 1},
		{MCS3, 962.5, "π/2-BPSK", "5/8", 1, 5, 8, 1},
		{MCS4, 1155, "π/2-BPSK", "3/4", 1, 3, 4, 1},
		{MCS5, 1251.25, "π/2-BPSK", "13/16", 1, 13, 16, 1},
		{MCS6, 1540, "π/2-QPSK", "1/2", 2, 1, 2, 1},
		{MCS7, 1925, "π/2-QPSK", "5/8", 2, 5, 8, 1},
		{MCS8, 2310, "π/2-QPSK", "3/4", 2, 3, 4, 1},
		{MCS9, 2502.5, "π/2-QPSK", "13/16", 2, 13, 16, 1},
		{MCS10, 3080, "π/2-16QAM", "1/2", 4, 1, 2, 1},
		{MCS11, 3850, "π/2-16QAM", "5/8", 4, 5, 8, 1},
		{MCS12, 4620, "π/2-16QAM", "3/4", 4, 3, 4, 1},
	}
	if len(cases) != int(mcsCount)-1 {
		t.Fatalf("oracle covers %d data MCSs, table has %d", len(cases), int(mcsCount)-1)
	}
	for _, c := range cases {
		info := c.m.Lookup()
		if info.RateBps != c.mbps*1e6 {
			t.Errorf("%v rate = %v, want %v Mbps", c.m, info.RateBps, c.mbps)
		}
		derived := 1760e6 * 448 / 512 * c.bits * c.num / c.den / c.rep
		if math.Abs(derived-c.mbps*1e6) > 1 {
			t.Errorf("%v: oracle row %v Mbps disagrees with the derived %v bps", c.m, c.mbps, derived)
		}
		if info.Modulation != c.mod || info.CodeRate != c.rate {
			t.Errorf("%v = %s %s, want %s %s", c.m, info.Modulation, info.CodeRate, c.mod, c.rate)
		}
	}
	// Control PHY: 32-fold spread DBPSK at rate 1/2, 27.5 Mbps.
	if info := MCS0.Lookup(); info.RateBps != 27.5e6 || info.Modulation != "π/2-DBPSK" || info.CodeRate != "1/2" {
		t.Errorf("MCS0 = %+v, want π/2-DBPSK 1/2 at 27.5 Mbps", info)
	}

	// SC timing at Tc = 1/1760 MHz: STF (17 Golay-128 sequences) plus CEF
	// (9) is 3328 chips, the header two 512-chip blocks; both round to
	// the standard's 1.891 µs and 0.582 µs. aSIFSTime is 3 µs and
	// aSlotTime 5 µs.
	chips := func(n float64) time.Duration {
		return time.Duration(math.Round(n / 1.76e9 * 1e9))
	}
	timings := []struct {
		name      string
		got, want time.Duration
	}{
		{"PreambleDuration", PreambleDuration, 1891 * time.Nanosecond},
		{"PreambleDuration (chips)", PreambleDuration, chips(26 * 128)},
		{"HeaderDuration", HeaderDuration, 582 * time.Nanosecond},
		{"HeaderDuration (chips)", HeaderDuration, chips(2 * 512)},
		{"SIFS", SIFS, 3 * time.Microsecond},
		{"SlotTime", SlotTime, 5 * time.Microsecond},
	}
	for _, c := range timings {
		if c.got != c.want {
			t.Errorf("%s = %v, want %v", c.name, c.got, c.want)
		}
	}
}

func TestSelectMCS(t *testing.T) {
	// Very low SNR: unusable.
	if _, ok := SelectMCS(-5, 0); ok {
		t.Error("-5 dB should be unusable")
	}
	// Paper's 2 m anchor: ~21 dB picks 16-QAM 5/8 (MCS11), not MCS12.
	m, ok := SelectMCS(21, 0)
	if !ok || m != MCS11 {
		t.Errorf("21 dB -> %v", m)
	}
	// Huge SNR reaches the top.
	if m, _ := SelectMCS(40, 0); m != MCS12 {
		t.Errorf("40 dB -> %v", m)
	}
	// Margin shifts selection down.
	m1, _ := SelectMCS(18, 0)
	m2, _ := SelectMCS(18, 3)
	if m2 >= m1 {
		t.Errorf("margin did not reduce MCS: %v vs %v", m1, m2)
	}
}

func TestSelectMCSMonotoneProperty(t *testing.T) {
	f := func(a, b float64) bool {
		if math.IsNaN(a) || math.IsNaN(b) || math.IsInf(a, 0) || math.IsInf(b, 0) {
			return true
		}
		lo, hi := math.Min(a, b), math.Max(a, b)
		ml, _ := SelectMCS(lo, 0)
		mh, _ := SelectMCS(hi, 0)
		return mh >= ml
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPER(t *testing.T) {
	// Far above threshold: negligible loss. Far below: certain loss.
	if per := MCS8.PER(25, 8000); per > 1e-6 {
		t.Errorf("high-SNR PER = %v", per)
	}
	if per := MCS8.PER(2, 8000); per < 0.99 {
		t.Errorf("low-SNR PER = %v", per)
	}
	// At threshold: a meaningful but moderate error rate.
	at := MCS8.PER(MCS8.Lookup().MinSNRdB, 8000)
	if at < 0.01 || at > 0.5 {
		t.Errorf("threshold PER = %v", at)
	}
	// Longer frames fail more.
	if MCS8.PER(10, 80000) <= MCS8.PER(10, 8000) {
		t.Error("length scaling missing")
	}
	// Bounded to [0,1].
	f := func(snr float64, bits uint16) bool {
		if math.IsNaN(snr) || math.IsInf(snr, 0) {
			return true
		}
		p := MCS5.PER(snr, int(bits))
		return p >= 0 && p <= 1
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestFrameDurations(t *testing.T) {
	// A single 1500-byte MPDU at MCS11 is a ~5.6 µs frame: the paper's
	// "short frame" class (Fig. 9).
	short := MCS11.FrameDuration(1500)
	if short < 5*time.Microsecond || short > 7*time.Microsecond {
		t.Errorf("single-MPDU frame = %v, want ≈5-6 µs", short)
	}
	// Seven aggregated MPDUs reach the paper's "long frame" class
	// (15–25 µs).
	long := MCS11.FrameDuration(7 * 1500)
	if long < 15*time.Microsecond || long > 27*time.Microsecond {
		t.Errorf("aggregated frame = %v, want ≈15-25 µs", long)
	}
	// Lower MCS takes longer for the same payload.
	if MCS4.FrameDuration(1500) <= MCS11.FrameDuration(1500) {
		t.Error("slower MCS should yield longer frames")
	}
}

func TestMaxAggBytes(t *testing.T) {
	// The paper's max observed aggregation: a 25 µs frame at 16-QAM 5/8
	// carries roughly 11 KB.
	maxB := MCS11.MaxAggBytes(25 * time.Microsecond)
	if maxB < 9000 || maxB > 13000 {
		t.Errorf("MaxAggBytes(25µs)@MCS11 = %d", maxB)
	}
	// Round trip: a payload of MaxAggBytes fits in the air-time budget.
	d := MCS11.FrameDuration(maxB)
	if d > 25*time.Microsecond+time.Nanosecond {
		t.Errorf("round-trip duration %v exceeds 25 µs", d)
	}
	// Budget smaller than the preamble: nothing fits.
	if MCS11.MaxAggBytes(time.Microsecond) != 0 {
		t.Error("sub-preamble budget should fit nothing")
	}
}

func TestControlFrameDurations(t *testing.T) {
	// Control frames are short but not zero.
	for _, f := range []Frame{
		{Type: FrameAck},
		{Type: FrameRTS},
		{Type: FrameCTS},
		{Type: FrameBeacon},
	} {
		d := f.Duration()
		if d <= 0 || d > 40*time.Microsecond {
			t.Errorf("%v duration = %v", f.Type, d)
		}
	}
	// A discovery sub-element is 22 µs; the full sweep of 32 is ~0.7 ms
	// (Fig. 3).
	disc := Frame{Type: FrameDiscovery}.Duration()
	if disc != DiscoverySubElementDuration {
		t.Errorf("discovery sub-element duration = %v", disc)
	}
	if DiscoveryFrameDuration < 600*time.Microsecond || DiscoveryFrameDuration > 800*time.Microsecond {
		t.Errorf("discovery sweep = %v, want ≈0.7 ms", DiscoveryFrameDuration)
	}
	if DiscoverySubElements != 32 {
		t.Errorf("sub-elements = %d", DiscoverySubElements)
	}
}

func TestDataFrameDurationUsesMCS(t *testing.T) {
	f := Frame{Type: FrameData, MCS: MCS6, PayloadBytes: 4000}
	if f.Duration() != MCS6.FrameDuration(4000) {
		t.Error("data frame duration mismatch")
	}
}

func TestFrameString(t *testing.T) {
	f := Frame{Type: FrameData, Src: 1, Dst: 2, MCS: MCS11, PayloadBytes: 3000, MPDUs: 2, Retry: true}
	s := f.String()
	for _, want := range []string{"data", "1→2", "3000B", "x2", "retry", "MCS11"} {
		if !strings.Contains(s, want) {
			t.Errorf("String %q missing %q", s, want)
		}
	}
	if got := FrameType(99).String(); !strings.Contains(got, "99") {
		t.Errorf("unknown type String = %q", got)
	}
}

func TestMCSStringAndPanics(t *testing.T) {
	if s := MCS11.String(); !strings.Contains(s, "16QAM") || !strings.Contains(s, "3850") {
		t.Errorf("MCS11 String = %q", s)
	}
	defer func() {
		if recover() == nil {
			t.Error("invalid MCS should panic")
		}
	}()
	MCS(99).Lookup()
}
