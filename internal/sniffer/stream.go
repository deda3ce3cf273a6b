package sniffer

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"io"
	"math"

	"repro/internal/phy"
	"repro/internal/recio"
	"repro/internal/sim"
)

// The capture format (version 2) — the streaming, crash-safe trace
// layout.
//
// A capture is the generic recio framing (see internal/recio: 16-byte
// magic/version header, length-delimited CRC32-C records, sentinel
// footer, valid-prefix recovery after a crash) carrying one observation
// per record. Record payload fields, in order:
//
//	uvarint type | uvarint src | uvarint mpdus | uvarint meta
//	uvarint startNs | uvarint endNs | powerBits uint64 | flags uint8
//
// MPDUs and Meta are varints, so large aggregation counts survive (the
// retired version 1 capped them at one byte). The reader
// rejects records whose annex is semantically invalid — End < Start,
// negative timestamps, non-finite power — with ErrBadTraceFile.
//
// Truncation policy (inherited from recio): damage at the end of the
// file (missing footer, a cut record, an unverifiable footer) is
// recovered silently — Next returns io.EOF and Truncated() reports
// true. Damage in the middle of the file (a record whose checksum fails
// with more data behind it, or a footer whose count disagrees with the
// records read) is corruption and surfaces as ErrBadTraceFile.

// traceVersion identifies the capture format. The reader refuses every
// other version, the retired fixed-record version 1 included.
const traceVersion = 2

// maxFieldValue bounds the integer annex fields (type, src, mpdus, meta)
// so corrupt varints cannot smuggle absurd values into analyses.
const maxFieldValue = 1 << 30

// traceCRCTable is the checksum table of the framing layer (CRC32-C,
// shared with internal/recio); kept here so format tests can recompute
// record and footer checksums.
var traceCRCTable = crc32.MakeTable(crc32.Castagnoli)

// record flag bits.
const (
	recRetry    = 1 << 0
	recCollided = 1 << 1
)

// checkObservation validates the semantic invariants every stored record
// must satisfy. Both the writer (refusing to persist garbage) and the
// reader (refusing to surface it) enforce the same set.
func checkObservation(o Observation) error {
	if o.Start < 0 {
		return fmt.Errorf("negative start time %v", o.Start)
	}
	if o.End < o.Start {
		return fmt.Errorf("end %v before start %v", o.End, o.Start)
	}
	if math.IsNaN(o.PowerDBm) || math.IsInf(o.PowerDBm, 0) {
		return fmt.Errorf("non-finite power %v", o.PowerDBm)
	}
	if o.Type < 0 || int64(o.Type) > maxFieldValue {
		return fmt.Errorf("frame type %d out of range", int(o.Type))
	}
	if o.Src < 0 || int64(o.Src) > maxFieldValue {
		return fmt.Errorf("source %d out of range", o.Src)
	}
	if o.MPDUs < 0 || int64(o.MPDUs) > maxFieldValue {
		return fmt.Errorf("MPDU count %d out of range", o.MPDUs)
	}
	if o.Meta < 0 || int64(o.Meta) > maxFieldValue {
		return fmt.Errorf("meta %d out of range", o.Meta)
	}
	return nil
}

// WriterStats are the lightweight counters a TraceWriter maintains for
// campaign summaries.
type WriterStats struct {
	// Records is the number of records written so far.
	Records uint64
	// Bytes is the total bytes emitted, including framing.
	Bytes uint64
	// Drops counts observations rejected by validation.
	Drops uint64
}

// TraceWriter streams observations to a capture file in O(1) memory.
// It implements Sink, so it can be attached directly to a Sniffer.
// Close writes the footer; a capture missing its footer (crash before
// Close) is still readable up to the last complete record.
type TraceWriter struct {
	rw    *recio.Writer
	buf   []byte // reused payload scratch
	drops uint64
}

// NewTraceWriter writes the capture header to w and returns a writer ready to
// append records. The caller owns w and must close it after Close.
func NewTraceWriter(w io.Writer) (*TraceWriter, error) {
	rw, err := recio.NewWriter(w, traceMagic, traceVersion)
	if err != nil {
		return nil, err
	}
	return &TraceWriter{rw: rw, buf: make([]byte, 0, 128)}, nil
}

// Write appends one observation as a record. Invalid observations
// (End < Start, negative timestamps, non-finite power, out-of-range
// counts) are counted as drops and returned as errors without being
// written.
func (tw *TraceWriter) Write(o Observation) error {
	if err := checkObservation(o); err != nil {
		tw.drops++
		return fmt.Errorf("sniffer: invalid observation: %w", err)
	}
	p := tw.buf[:0]
	p = binary.AppendUvarint(p, uint64(o.Type))
	p = binary.AppendUvarint(p, uint64(o.Src))
	p = binary.AppendUvarint(p, uint64(o.MPDUs))
	p = binary.AppendUvarint(p, uint64(o.Meta))
	p = binary.AppendUvarint(p, uint64(o.Start))
	p = binary.AppendUvarint(p, uint64(o.End))
	p = binary.LittleEndian.AppendUint64(p, math.Float64bits(o.PowerDBm))
	var flags byte
	if o.Retry {
		flags |= recRetry
	}
	if o.Collided {
		flags |= recCollided
	}
	p = append(p, flags)
	tw.buf = p
	return tw.rw.Append(p)
}

// Capture implements Sink.
func (tw *TraceWriter) Capture(o Observation) error { return tw.Write(o) }

// Stats returns the writer's counters.
func (tw *TraceWriter) Stats() WriterStats {
	return WriterStats{Records: tw.rw.Records(), Bytes: tw.rw.Bytes(), Drops: tw.drops}
}

// Sync flushes buffered records and forces them to stable storage when
// the underlying writer supports it. Callers that care about crash
// durability (capture finalization, fault-injection tests) sync after
// Close to make the footer durable too.
func (tw *TraceWriter) Sync() error { return tw.rw.Sync() }

// Close writes the footer and flushes. The underlying writer is not
// closed. Close is idempotent.
func (tw *TraceWriter) Close() error { return tw.rw.Close() }

// TraceReader iterates the records of a capture file in O(1) memory,
// decoding the framing through recio. A truncated file — one that ends
// mid-record or without a verifiable footer — yields its valid prefix,
// after which Next returns io.EOF and Truncated reports true.
type TraceReader struct {
	rr      *recio.Reader
	records uint64
	done    bool
	err     error
}

// NewTraceReader parses the file header and returns an iterator over the
// records. It fails with ErrBadTraceFile when the header is not a
// capture header of the supported version.
func NewTraceReader(r io.Reader) (*TraceReader, error) {
	rr, v, err := recio.NewReader(r, traceMagic)
	if err != nil {
		return nil, fmt.Errorf("%w: %v", ErrBadTraceFile, err)
	}
	if v != traceVersion {
		return nil, fmt.Errorf("%w: unsupported version %d", ErrBadTraceFile, v)
	}
	rr.BaseErr = ErrBadTraceFile
	return &TraceReader{rr: rr}, nil
}

// Records reports how many records have been returned so far.
func (tr *TraceReader) Records() uint64 { return tr.records }

// Truncated reports whether the stream ended without a verifiable
// footer — the capture was cut short and Next returned the recovered
// prefix. Only meaningful after Next has returned io.EOF.
func (tr *TraceReader) Truncated() bool { return tr.rr.Truncated() }

// Next returns the next observation. It returns io.EOF at the end of
// the capture (including the recovered end of a truncated file) and
// ErrBadTraceFile on corruption.
func (tr *TraceReader) Next() (Observation, error) {
	if tr.err != nil {
		return Observation{}, tr.err
	}
	if tr.done {
		return Observation{}, io.EOF
	}
	o, err := tr.next()
	if err != nil {
		tr.done = true
		if err != io.EOF {
			tr.err = err
		}
		return Observation{}, err
	}
	tr.records++
	return o, nil
}

func (tr *TraceReader) next() (Observation, error) {
	p, err := tr.rr.Next()
	if err != nil {
		return Observation{}, err
	}
	o, err := decodeRecord(p)
	if err != nil {
		return Observation{}, fmt.Errorf("%w: record %d: %v", ErrBadTraceFile, tr.records, err)
	}
	return o, nil
}

// decodeRecord parses and validates one record payload.
func decodeRecord(p []byte) (Observation, error) {
	var o Observation
	var fields [6]uint64
	for i := range fields {
		v, n := binary.Uvarint(p)
		if n <= 0 {
			return o, fmt.Errorf("malformed payload")
		}
		fields[i] = v
		p = p[n:]
	}
	typ, src, mpdus, meta, start, end := fields[0], fields[1], fields[2], fields[3], fields[4], fields[5]
	if len(p) != 9 {
		return o, fmt.Errorf("malformed payload")
	}
	o.Type = phy.FrameType(typ)
	o.Src = int(src)
	o.MPDUs = int(mpdus)
	o.Meta = int(meta)
	o.Start = sim.Time(start)
	o.End = sim.Time(end)
	o.PowerDBm = math.Float64frombits(binary.LittleEndian.Uint64(p))
	o.Retry = p[8]&recRetry != 0
	o.Collided = p[8]&recCollided != 0
	if typ > maxFieldValue || src > maxFieldValue || mpdus > maxFieldValue || meta > maxFieldValue ||
		start > math.MaxInt64 || end > math.MaxInt64 {
		return o, fmt.Errorf("field out of range")
	}
	if err := checkObservation(o); err != nil {
		return o, err
	}
	o.AmplitudeV = AmplitudeFromPower(o.PowerDBm)
	return o, nil
}
