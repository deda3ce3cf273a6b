package sniffer

import (
	"bytes"
	"io"
	"math"
	"testing"
	"time"

	"repro/internal/antenna"
	"repro/internal/geom"
	"repro/internal/phy"
	"repro/internal/sim"
)

// synthObs derives a deterministic observation from an index, exercising
// varint widths from one byte up through multi-byte counts.
func synthObs(i int) Observation {
	start := sim.Time(i) * 40 * time.Microsecond
	o := Observation{
		Start:    start,
		End:      start + sim.Time(5+i%23)*time.Microsecond,
		PowerDBm: -40 - float64(i%37)/2,
		Type:     phy.FrameType(i % 6),
		Src:      i % 5,
		Meta:     i % 300,
		MPDUs:    1 + i%700,
		Retry:    i%7 == 0,
		Collided: i%11 == 0,
	}
	o.AmplitudeV = AmplitudeFromPower(o.PowerDBm)
	return o
}

func TestTraceStreamIncremental(t *testing.T) {
	const n = 5000
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(synthObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	st := tw.Stats()
	if st.Records != n || st.Drops != 0 {
		t.Fatalf("stats = %+v", st)
	}
	if st.Bytes != uint64(buf.Len()) {
		t.Fatalf("stats.Bytes = %d, file is %d", st.Bytes, buf.Len())
	}
	// Close is idempotent; writes after Close fail.
	if err := tw.Close(); err != nil {
		t.Fatalf("second Close: %v", err)
	}
	if err := tw.Write(synthObs(0)); err == nil {
		t.Fatal("write after Close accepted")
	}

	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		got, err := tr.Next()
		if err != nil {
			t.Fatalf("record %d: %v", i, err)
		}
		want := synthObs(i)
		if got != want {
			t.Fatalf("record %d:\n got %+v\nwant %+v", i, got, want)
		}
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("after last record: %v", err)
	}
	if tr.Truncated() || tr.Records() != n {
		t.Fatalf("truncated=%v records=%d", tr.Truncated(), tr.Records())
	}
}

func TestTraceWriterDropCounter(t *testing.T) {
	tw, err := NewTraceWriter(io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	bad := Observation{Start: 10, End: 5, PowerDBm: -50}
	if err := tw.Write(bad); err == nil {
		t.Fatal("invalid observation accepted")
	}
	if err := tw.Write(synthObs(1)); err != nil {
		t.Fatal(err)
	}
	if st := tw.Stats(); st.Drops != 1 || st.Records != 1 {
		t.Fatalf("stats = %+v", st)
	}
}

func TestTraceEmptyStream(t *testing.T) {
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := tr.Next(); err != io.EOF {
		t.Fatalf("Next on empty capture: %v", err)
	}
	if tr.Truncated() {
		t.Fatal("intact empty capture flagged truncated")
	}
}

// TestTraceStreamMillion: the acceptance-scale capture — a million
// observations stream write→read without ever materializing a slice.
func TestTraceStreamMillion(t *testing.T) {
	n := 1_000_000
	if testing.Short() {
		n = 50_000
	}
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < n; i++ {
		if err := tw.Write(synthObs(i)); err != nil {
			t.Fatal(err)
		}
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	tr, err := NewTraceReader(&buf)
	if err != nil {
		t.Fatal(err)
	}
	count := 0
	for {
		o, err := tr.Next()
		if err == io.EOF {
			break
		}
		if err != nil {
			t.Fatalf("record %d: %v", count, err)
		}
		if count%99991 == 0 && o != synthObs(count) {
			t.Fatalf("record %d mismatch", count)
		}
		count++
	}
	if count != n || tr.Truncated() {
		t.Fatalf("read %d of %d records, truncated=%v", count, n, tr.Truncated())
	}
}

// TestSnifferSinkStreaming: observations flow to the sink at capture
// time; SinkOnly keeps Obs empty, and a TraceWriter sink produces a
// loadable capture.
func TestSnifferSinkStreaming(t *testing.T) {
	s, med := testMedium(91)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	var buf bytes.Buffer
	tw, err := NewTraceWriter(&buf)
	if err != nil {
		t.Fatal(err)
	}
	var seen int
	sn.Sink = Tee(tw, SinkFunc(func(Observation) error { seen++; return nil }))
	sn.SinkOnly = true
	const frames = 50
	for i := 0; i < frames; i++ {
		at := sim.Time(i) * 50 * time.Microsecond
		s.At(at, func() {
			med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
		})
	}
	s.Run(5 * time.Millisecond)
	if len(sn.Obs) != 0 {
		t.Fatalf("SinkOnly accumulated %d observations", len(sn.Obs))
	}
	if seen != frames || sn.Stats.Captured != frames || sn.Stats.SinkDrops != 0 {
		t.Fatalf("seen=%d stats=%+v", seen, sn.Stats)
	}
	if err := tw.Close(); err != nil {
		t.Fatal(err)
	}
	out, err := ReadTrace(&buf)
	if err != nil || len(out) != frames {
		t.Fatalf("capture: %v, %d records", err, len(out))
	}
}

// TestSnifferRetainWindow: a bounded Retain keeps memory flat while the
// recent excerpt stays available to Window/Envelope.
func TestSnifferRetainWindow(t *testing.T) {
	s, med := testMedium(92)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	sn.Retain = time.Millisecond
	const frames = 2000
	for i := 0; i < frames; i++ {
		at := sim.Time(i) * 50 * time.Microsecond
		s.At(at, func() {
			med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
		})
	}
	s.Run(frames * 50 * time.Microsecond)
	if sn.Stats.Captured != frames {
		t.Fatalf("captured %d of %d", sn.Stats.Captured, frames)
	}
	// 1 ms at 50 µs spacing ≈ 20 live frames; pruning is amortized so
	// allow slack, but the full history must be long gone.
	if len(sn.Obs) > 100 {
		t.Fatalf("retained %d observations, want a bounded window", len(sn.Obs))
	}
	now := s.Now()
	if w := sn.Window(now-500*time.Microsecond, now); len(w) == 0 {
		t.Fatal("recent window empty despite retention")
	}
}

func TestSnifferSinkErrorCounted(t *testing.T) {
	s, med := testMedium(93)
	tx := med.AddRadio(&sim.Radio{Name: "tx", Pos: geom.V(0, 0), TxPowerDBm: 10})
	sn := New(med, "vubiq", geom.V(2, 0), antenna.OpenWaveguide(), math.Pi)
	sn.Sink = SinkFunc(func(Observation) error { return io.ErrClosedPipe })
	med.Transmit(tx, phy.Frame{Type: phy.FrameData, Src: tx.ID, MCS: phy.MCS8, PayloadBytes: 1500})
	s.Run(time.Millisecond)
	if sn.Stats.SinkDrops != 1 || sn.SinkErr != io.ErrClosedPipe {
		t.Fatalf("drops=%d err=%v", sn.Stats.SinkDrops, sn.SinkErr)
	}
	if len(sn.Obs) != 1 {
		t.Fatalf("sink error must not lose the in-memory copy: %d obs", len(sn.Obs))
	}
}

// BenchmarkTraceWriter pins the O(1) claim: allocations per record must
// stay flat (zero steady-state) regardless of capture length.
func BenchmarkTraceWriter(b *testing.B) {
	tw, err := NewTraceWriter(io.Discard)
	if err != nil {
		b.Fatal(err)
	}
	obs := synthObs(12345)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if err := tw.Write(obs); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkTraceReader(b *testing.B) {
	var buf bytes.Buffer
	tw, _ := NewTraceWriter(&buf)
	const n = 100_000
	for i := 0; i < n; i++ {
		if err := tw.Write(synthObs(i)); err != nil {
			b.Fatal(err)
		}
	}
	tw.Close()
	raw := buf.Bytes()
	b.ReportAllocs()
	b.ResetTimer()
	tr, _ := NewTraceReader(bytes.NewReader(raw))
	for i := 0; i < b.N; i++ {
		if _, err := tr.Next(); err == io.EOF {
			b.StopTimer()
			tr, _ = NewTraceReader(bytes.NewReader(raw))
			b.StartTimer()
		} else if err != nil {
			b.Fatal(err)
		}
	}
}
