package sniffer

import (
	"bytes"
	"encoding/binary"
	"errors"
	"hash/crc32"
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/recio"
	"repro/internal/sim"
)

func sampleObs() []Observation {
	return []Observation{
		{Type: phy.FrameData, Src: 1, Meta: 0, MPDUs: 7,
			Start: 100 * time.Microsecond, End: 125 * time.Microsecond,
			PowerDBm: -42.5, AmplitudeV: AmplitudeFromPower(-42.5), Retry: true, Collided: true},
		{Type: phy.FrameBeacon, Src: 0,
			Start: 200 * time.Microsecond, End: 214 * time.Microsecond,
			PowerDBm: -51.25, AmplitudeV: AmplitudeFromPower(-51.25)},
		{Type: phy.FrameDiscovery, Src: 2, Meta: 31,
			Start: 300 * time.Microsecond, End: 322 * time.Microsecond,
			PowerDBm: -60, AmplitudeV: AmplitudeFromPower(-60)},
	}
}

func TestTraceFileRoundTrip(t *testing.T) {
	in := sampleObs()
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(in) {
		t.Fatalf("records = %d", len(out))
	}
	for i := range in {
		a, b := in[i], out[i]
		if a.Type != b.Type || a.Src != b.Src || a.Meta != b.Meta || a.MPDUs != b.MPDUs ||
			a.Start != b.Start || a.End != b.End || a.PowerDBm != b.PowerDBm ||
			a.Retry != b.Retry || a.Collided != b.Collided {
			t.Errorf("record %d mismatch:\n in %+v\nout %+v", i, a, b)
		}
		if b.AmplitudeV != AmplitudeFromPower(b.PowerDBm) {
			t.Errorf("record %d amplitude not rederived", i)
		}
	}
}

func TestTraceFileEmpty(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, nil); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil || len(out) != 0 {
		t.Errorf("empty round trip: %v, %d", err, len(out))
	}
}

func TestTraceFileCorruption(t *testing.T) {
	var buf bytes.Buffer
	if err := WriteTrace(&buf, sampleObs()); err != nil {
		t.Fatal(err)
	}
	raw := buf.Bytes()
	// Truncation is recovery, not an error: the valid prefix comes back.
	out, err := ReadTrace(bytes.NewReader(raw[:len(raw)-5]))
	if err != nil {
		t.Errorf("truncated file did not recover: %v", err)
	}
	if len(out) != len(sampleObs()) {
		// Cutting 5 bytes destroys (at least) the footer; all records
		// should still be intact here.
		t.Errorf("truncated file recovered %d of %d records", len(out), len(sampleObs()))
	}
	// Bad magic.
	bad := append([]byte(nil), raw...)
	bad[0] ^= 0xFF
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("bad magic accepted")
	}
	// Corrupted record payload with more data behind it (CRC catches it).
	bad = append([]byte(nil), raw...)
	bad[16+3] ^= 0x01
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("corrupted record accepted")
	}
	// A verifiable footer whose record count disagrees with the stream
	// is corruption (the CRC must be refreshed to isolate the check —
	// an unverifiable footer reads as truncation instead).
	bad = append([]byte(nil), raw...)
	foot := bad[len(bad)-20:]
	foot[0] ^= 0x01 // count field
	binary.LittleEndian.PutUint32(foot[16:], crc32.Checksum(foot[:16], traceCRCTable))
	if _, err := ReadTrace(bytes.NewReader(bad)); err == nil {
		t.Error("footer count mismatch accepted")
	}
}

// rawRecord encodes one record payload field by field, bypassing the
// writer's validation, so tests can frame values the writer refuses.
func rawRecord(typ, src, mpdus, meta, start, end, powerBits uint64, flags byte) []byte {
	var p []byte
	for _, v := range []uint64{typ, src, mpdus, meta, start, end} {
		p = binary.AppendUvarint(p, v)
	}
	p = binary.LittleEndian.AppendUint64(p, powerBits)
	return append(p, flags)
}

// rawTrace frames the payloads as a complete capture with valid
// checksums and footer.
func rawTrace(t testing.TB, payloads ...[]byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	w, err := recio.NewWriter(&buf, traceMagic, traceVersion)
	if err != nil {
		t.Fatal(err)
	}
	for _, p := range payloads {
		if err := w.Append(p); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

// A well-framed record whose fields break the format's invariants is
// corruption, not data.
func TestTraceFileRejectsCorruptAnnex(t *testing.T) {
	neg := uint64(1) << 63
	cases := map[string][]byte{
		"end before start":   rawRecord(0, 1, 1, 0, 20, 10, math.Float64bits(-50), 0),
		"negative timestamp": rawRecord(0, 1, 1, 0, neg, neg+5, math.Float64bits(-50), 0),
		"NaN power":          rawRecord(0, 1, 1, 0, 10, 20, math.Float64bits(math.NaN()), 0),
		"Inf power":          rawRecord(0, 1, 1, 0, 10, 20, math.Float64bits(math.Inf(1)), 0),
	}
	valid := rawRecord(0, 1, 1, 0, 10, 20, math.Float64bits(-50), 0)
	if out, err := ReadTrace(bytes.NewReader(rawTrace(t, valid))); err != nil || len(out) != 1 {
		t.Fatalf("valid raw record: %v (%d records)", err, len(out))
	}
	for name, rec := range cases {
		if _, err := ReadTrace(bytes.NewReader(rawTrace(t, valid, rec))); !errors.Is(err, ErrBadTraceFile) {
			t.Errorf("%s: err = %v, want ErrBadTraceFile", name, err)
		}
	}
}

func TestWriteTraceRejectsInvalid(t *testing.T) {
	cases := map[string]Observation{
		"end before start": {Start: 10 * time.Microsecond, End: 5 * time.Microsecond, PowerDBm: -50},
		"negative start":   {Start: -time.Microsecond, End: time.Microsecond, PowerDBm: -50},
		"NaN power":        {Start: 1, End: 2, PowerDBm: math.NaN()},
		"negative MPDUs":   {Start: 1, End: 2, PowerDBm: -50, MPDUs: -1},
		"negative meta":    {Start: 1, End: 2, PowerDBm: -50, Meta: -3},
	}
	for name, o := range cases {
		var buf bytes.Buffer
		if err := WriteTrace(&buf, []Observation{o}); err == nil {
			t.Errorf("%s: accepted", name)
		}
	}
}

// TestTraceFileWideAggregation: the varint fields carry MPDU counts past
// one byte without corruption (the clampByte bug of the retired v1
// format).
func TestTraceFileWideAggregation(t *testing.T) {
	in := []Observation{{
		Type: phy.FrameData, Src: 1, MPDUs: 4096, Meta: 70000,
		Start: time.Millisecond, End: 2 * time.Millisecond, PowerDBm: -40,
	}}
	var buf bytes.Buffer
	if err := WriteTrace(&buf, in); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil || len(out) != 1 {
		t.Fatalf("read: %v (%d records)", err, len(out))
	}
	if out[0].MPDUs != 4096 || out[0].Meta != 70000 {
		t.Errorf("aggregation fields corrupted: MPDUs=%d Meta=%d", out[0].MPDUs, out[0].Meta)
	}
}

func TestTraceFileFromLiveCapture(t *testing.T) {
	s, med := testMedium(77)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	rec := record(sn)
	for i := 0; i < 20; i++ {
		at := sim.Time(i) * 50 * time.Microsecond
		s.At(at, func() {
			med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
		})
	}
	s.Run(5 * time.Millisecond)
	var buf bytes.Buffer
	if err := WriteTrace(&buf, rec.Obs); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(out) != len(rec.Obs) {
		t.Fatalf("%d of %d records survived", len(out), len(rec.Obs))
	}
}
