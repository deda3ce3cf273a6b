package sniffer

import (
	"bytes"
	"encoding/hex"
	"errors"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"repro/internal/phy"
	"repro/internal/sim"
)

// Property: the capture format round-trips everything the instrument
// records — for arbitrary observations within the format's field ranges,
// including MPDU/Meta counts far past one byte.
func TestTraceRoundTripProperty(t *testing.T) {
	types := []phy.FrameType{phy.FrameData, phy.FrameBeacon, phy.FrameDiscovery, phy.FrameRTS, phy.FrameCTS}
	prop := func(start, dur uint32, src uint16, meta, mpdus uint32, pw int16, tsel uint8, retry, collided bool) bool {
		in := Observation{
			Start:    sim.Time(start),
			End:      sim.Time(start) + sim.Time(dur),
			PowerDBm: float64(pw) / 100,
			Type:     types[int(tsel)%len(types)],
			Src:      int(src),
			Meta:     int(meta % (1 << 24)),
			MPDUs:    int(mpdus % (1 << 24)),
			Retry:    retry,
			Collided: collided,
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []Observation{in}); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		out, err := ReadTrace(&buf)
		if err != nil {
			t.Logf("read: %v", err)
			return false
		}
		if len(out) != 1 {
			return false
		}
		o := out[0]
		return o.Start == in.Start && o.End == in.End &&
			o.PowerDBm == in.PowerDBm &&
			o.Type == in.Type && o.Src == in.Src &&
			o.Meta == in.Meta && o.MPDUs == in.MPDUs &&
			o.Retry == in.Retry && o.Collided == in.Collided &&
			math.Abs(o.AmplitudeV-AmplitudeFromPower(in.PowerDBm)) < 1e-15
	}
	if err := quick.Check(prop, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// Property: a truncated v2 capture recovers exactly a prefix of its
// records — never garbage, never extra records, and the reader flags the
// truncation. Cuts inside the header still error.
func TestTraceTruncationProperty(t *testing.T) {
	obs := []Observation{
		{Start: 1000, End: 2000, PowerDBm: -55, Type: phy.FrameData, Src: 3, MPDUs: 4},
		{Start: 3000, End: 3500, PowerDBm: -60, Type: phy.FrameBeacon, Src: 4},
		{Start: 4000, End: 4700, PowerDBm: -48, Type: phy.FrameData, Src: 3, MPDUs: 900},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, obs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()
	sameObs := func(a, b Observation) bool {
		return a.Start == b.Start && a.End == b.End && a.PowerDBm == b.PowerDBm &&
			a.Type == b.Type && a.Src == b.Src && a.Meta == b.Meta && a.MPDUs == b.MPDUs &&
			a.Retry == b.Retry && a.Collided == b.Collided
	}
	for cut := 0; cut < len(full); cut++ {
		got, err := ReadTrace(bytes.NewReader(full[:cut]))
		if cut < 16 {
			if err == nil {
				t.Fatalf("cut %d inside the header parsed without error", cut)
			}
			continue
		}
		if err != nil {
			t.Fatalf("cut at byte %d of %d errored instead of recovering: %v", cut, len(full), err)
		}
		if len(got) > len(obs) {
			t.Fatalf("cut %d recovered %d records from a %d-record capture", cut, len(got), len(obs))
		}
		for i := range got {
			if !sameObs(got[i], obs[i]) {
				t.Fatalf("cut %d record %d mismatches the original", cut, i)
			}
		}
	}
	if got, err := ReadTrace(bytes.NewReader(full)); err != nil || len(got) != len(obs) {
		t.Fatalf("full file: %v, %d records", err, len(got))
	}
}

// Property: truncation is visible through the streaming reader — a cut
// that removes the footer must set Truncated, the intact file must not.
func TestTraceTruncatedFlag(t *testing.T) {
	obs := []Observation{
		{Start: 10, End: 20, PowerDBm: -50, Type: phy.FrameData, Src: 1},
		{Start: 30, End: 35, PowerDBm: -61, Type: phy.FrameBeacon, Src: 2},
	}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, obs); err != nil {
		t.Fatal(err)
	}
	full := buf.Bytes()

	drain := func(raw []byte) *TraceReader {
		tr, err := NewTraceReader(bytes.NewReader(raw))
		if err != nil {
			t.Fatal(err)
		}
		for {
			if _, err := tr.Next(); err != nil {
				return tr
			}
		}
	}
	if tr := drain(full); tr.Truncated() || tr.Records() != 2 {
		t.Errorf("intact file: truncated=%v records=%d", tr.Truncated(), tr.Records())
	}
	if tr := drain(full[:len(full)-3]); !tr.Truncated() || tr.Records() != 2 {
		t.Errorf("footer cut: truncated=%v records=%d", tr.Truncated(), tr.Records())
	}
	if tr := drain(full[:len(full)-25]); !tr.Truncated() || tr.Records() != 1 {
		t.Errorf("record cut: truncated=%v records=%d", tr.Truncated(), tr.Records())
	}
	// A crash against a preallocated file leaves a zero tail, not a
	// clean cut. The zero length byte looks like a footer sentinel; its
	// unverifiable checksum must read as truncation, not corruption.
	zeros := append(append([]byte(nil), full[:len(full)-21]...), make([]byte, 64)...)
	if tr := drain(zeros); !tr.Truncated() || tr.Records() != 2 {
		t.Errorf("zero tail: truncated=%v records=%d", tr.Truncated(), tr.Records())
	}
}

// v1GoldenHex is a capture of sampleObs() in the retired fixed-record
// version 1 format.
const v1GoldenHex = "4942555601000000030000000000000060ad010000000100ffff0000000000000000000000000700f4832380a08601000000000048e801000000000000000000004045c00300000060ad010200000000ffff000000000000000000000000000040b333ef400d030000000000f0430300000000000000000000a049c00000000060ad010300000200ffff000000000000000000000000001fb031a6b2e093040000000000d0e90400000000000000000000004ec000000000"

// TestTraceV1Refused: a version-1 capture — intact or cut anywhere past
// its header — is refused at the header with ErrBadTraceFile naming the
// version, by both readers.
func TestTraceV1Refused(t *testing.T) {
	golden, err := hex.DecodeString(v1GoldenHex)
	if err != nil {
		t.Fatal(err)
	}
	for cut := 16; cut <= len(golden); cut++ {
		_, err := ReadTrace(bytes.NewReader(golden[:cut]))
		if !errors.Is(err, ErrBadTraceFile) || !strings.Contains(err.Error(), "unsupported version 1") {
			t.Fatalf("v1 file cut at byte %d: err = %v, want ErrBadTraceFile naming version 1", cut, err)
		}
	}
	if _, err := NewTraceReader(bytes.NewReader(golden)); !errors.Is(err, ErrBadTraceFile) {
		t.Fatalf("NewTraceReader: err = %v, want ErrBadTraceFile", err)
	}
}
