package sniffer

import (
	"bytes"
	"encoding/hex"
	"math"
	"testing"

	"repro/internal/phy"
)

// FuzzReadTrace: arbitrary bytes must never panic the capture-file
// parser or make it allocate past its bounds, and any file it accepts
// must survive a write/read round-trip.
func FuzzReadTrace(f *testing.F) {
	obs := []Observation{
		{Start: 10, End: 20, PowerDBm: -50, Type: phy.FrameData, Src: 1, MPDUs: 2},
		{Start: 30, End: 35, PowerDBm: -61, Type: phy.FrameBeacon, Src: 2, Retry: true},
	}
	var v2 bytes.Buffer
	WriteTrace(&v2, obs)
	v1, _ := hex.DecodeString(v1GoldenHex)
	f.Add(v2.Bytes())
	// A retired version-1 capture: refused at the header.
	f.Add(v1)
	f.Add([]byte{})
	f.Add(v2.Bytes()[:17])
	f.Add(v1[:17])
	// Truncations: a record cut mid-payload and a cut footer.
	f.Add(v2.Bytes()[:len(v2.Bytes())-24])
	f.Add(v2.Bytes()[:len(v2.Bytes())-3])
	// Crash tail: footer replaced with preallocated zeros.
	f.Add(append(append([]byte(nil), v2.Bytes()[:len(v2.Bytes())-21]...), make([]byte, 32)...))
	// An unknown future version with a well-formed body.
	v3 := append([]byte(nil), v2.Bytes()...)
	v3[4] = 3
	f.Add(v3)
	// Well-framed records with corrupt fields: End before Start,
	// negative times, and non-finite power bits.
	neg := uint64(1) << 63
	f.Add(rawTrace(f, rawRecord(0, 1, 2, 0, 20, 10, math.Float64bits(-50), 0)))
	f.Add(rawTrace(f, rawRecord(0, 1, 2, 0, neg, neg+5, math.Float64bits(-50), 0)))
	f.Add(rawTrace(f, rawRecord(0, 1, 2, 0, 10, 20, math.Float64bits(math.NaN()), 0)))
	f.Add(rawTrace(f, rawRecord(0, 1, 2, 0, 10, 20, math.Float64bits(math.Inf(-1)), 0)))
	f.Fuzz(func(t *testing.T, data []byte) {
		obs, err := ReadTrace(bytes.NewReader(data))
		if err != nil {
			return
		}
		for i, o := range obs {
			// Everything the reader surfaces must satisfy the format's
			// invariants — corrupt fields may not leak through.
			if o.End < o.Start || o.Start < 0 ||
				math.IsNaN(o.PowerDBm) || math.IsInf(o.PowerDBm, 0) {
				t.Fatalf("record %d violates invariants: %+v", i, o)
			}
		}
		var buf bytes.Buffer
		if err := WriteTrace(&buf, obs); err != nil {
			t.Fatalf("accepted capture does not re-encode: %v", err)
		}
		again, err := ReadTrace(&buf)
		if err != nil || len(again) != len(obs) {
			t.Fatalf("re-encoded capture does not parse: %v (%d vs %d records)",
				err, len(again), len(obs))
		}
	})
}
