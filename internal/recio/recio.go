// Package recio implements the crash-safe, length-delimited record
// framing shared by every append-mostly binary file in this repository:
// sniffer captures (the .vubiq format) and campaign checkpoints.
//
// A stream is written incrementally — records are appended as they are
// produced and the only state that must survive to the end is a small
// footer. A stream that dies mid-write (power loss, crash, SIGKILL,
// full disk) loses at most its final partial record; the reader
// recovers the valid prefix.
//
// Layout (all integers little-endian, varints per encoding/binary):
//
//	header (16 B)  magic uint32 | version uint32 | reserved 8 B (zero)
//	record         uvarint payloadLen | payload | crc32c(payload) uint32
//	...
//	footer         uvarint 0 (sentinel) | records uint64 |
//	               payloadBytes uint64 | crc32c(prev 16 B) uint32
//
// A record payload is never empty, so a zero length unambiguously marks
// the footer. The payload encoding is the caller's business; recio
// guarantees framing integrity only.
//
// Truncation policy: damage at the end of the stream (missing footer, a
// cut record, an unverifiable footer) is recovered silently — Next
// returns io.EOF and Truncated() reports true. Damage in the middle of
// the stream (a record whose checksum fails with more data behind it,
// or a footer whose counters disagree with the records read) is
// corruption and surfaces as an error wrapping the reader's BaseErr.
package recio

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
)

// HeaderSize is the fixed stream header length.
const HeaderSize = 16

// DefaultMaxRecord bounds a single record payload unless the reader
// overrides it; anything larger is treated as corruption rather than a
// record.
const DefaultMaxRecord = 1 << 16

// ErrCorrupt is the default base error for mid-stream damage.
var ErrCorrupt = errors.New("recio: corrupt record stream")

var crcTable = crc32.MakeTable(crc32.Castagnoli)

// Writer appends framed records to an underlying stream in O(1) memory.
// Close writes the footer; a stream missing its footer (crash before
// Close) is still readable up to the last complete record.
type Writer struct {
	dst     io.Writer
	bw      *bufio.Writer
	rec     []byte // reused framed-record scratch
	records uint64
	bytes   uint64 // total bytes emitted, including header and footer
	err     error
	closed  bool
}

// NewWriter writes the stream header to w and returns a writer ready to
// append records. The caller owns w and must close it after Close.
func NewWriter(w io.Writer, magic, version uint32) (*Writer, error) {
	rw := &Writer{dst: w, bw: bufio.NewWriter(w), rec: make([]byte, 0, 160)}
	var hdr [HeaderSize]byte
	binary.LittleEndian.PutUint32(hdr[0:], magic)
	binary.LittleEndian.PutUint32(hdr[4:], version)
	if _, err := rw.bw.Write(hdr[:]); err != nil {
		return nil, err
	}
	rw.bytes = uint64(len(hdr))
	return rw, nil
}

// Append frames one non-empty payload as a record. The payload is
// copied before Append returns; the caller may reuse its buffer.
func (w *Writer) Append(payload []byte) error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return fmt.Errorf("recio: append on closed Writer")
	}
	if len(payload) == 0 {
		return fmt.Errorf("recio: empty record payload (zero length marks the footer)")
	}
	// Assemble length | payload | crc in one reused buffer so a record
	// write stays allocation-free.
	r := w.rec[:0]
	r = binary.AppendUvarint(r, uint64(len(payload)))
	r = append(r, payload...)
	r = binary.LittleEndian.AppendUint32(r, crc32.Checksum(payload, crcTable))
	w.rec = r
	if _, err := w.bw.Write(r); err != nil {
		return w.fail(err)
	}
	w.records++
	w.bytes += uint64(len(r))
	return nil
}

// Flush pushes buffered records through to the underlying writer. A
// durability point: after Flush returns, every appended record survives
// a crash of this process (subject to OS caching). Checkpoint writers
// flush after every record; high-rate capture writers rely on the
// default buffering and accept losing the buffered tail.
func (w *Writer) Flush() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

// Sync flushes buffered records and, when the underlying writer
// supports it (an *os.File or a vfs.File), forces them to stable
// storage. This is the real durability point: Flush alone only hands
// bytes to the OS. Checkpoint writers Sync after every record; a
// writer that has already written its footer via Close may still Sync
// to make the footer durable.
func (w *Writer) Sync() error {
	if w.err != nil {
		return w.err
	}
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	if s, ok := w.dst.(interface{ Sync() error }); ok {
		if err := s.Sync(); err != nil {
			return w.fail(err)
		}
	}
	return nil
}

// Records returns the number of records appended so far.
func (w *Writer) Records() uint64 { return w.records }

// Bytes returns the total bytes emitted, including framing (and the
// footer, after Close).
func (w *Writer) Bytes() uint64 { return w.bytes }

// Close writes the footer and flushes. The underlying writer is not
// closed. Close is idempotent.
func (w *Writer) Close() error {
	if w.err != nil {
		return w.err
	}
	if w.closed {
		return nil
	}
	w.closed = true
	var f [21]byte
	f[0] = 0 // zero-length sentinel: no record payload is ever empty
	binary.LittleEndian.PutUint64(f[1:], w.records)
	binary.LittleEndian.PutUint64(f[9:], w.bytes-HeaderSize)
	binary.LittleEndian.PutUint32(f[17:], crc32.Checksum(f[1:17], crcTable))
	if _, err := w.bw.Write(f[:]); err != nil {
		return w.fail(err)
	}
	w.bytes += uint64(len(f))
	if err := w.bw.Flush(); err != nil {
		return w.fail(err)
	}
	return nil
}

func (w *Writer) fail(err error) error {
	w.err = err
	return err
}

// Reader iterates the records of a framed stream in O(1) memory. A
// truncated stream — one that ends mid-record or without a verifiable
// footer — yields its valid prefix, after which Next returns io.EOF and
// Truncated reports true.
type Reader struct {
	br *bufio.Reader
	// BaseErr is the error corruption reports wrap (errors.Is target).
	// Defaults to ErrCorrupt; callers with their own sentinel (the
	// sniffer's ErrBadTraceFile) may replace it before the first Next.
	BaseErr error
	// MaxRecord bounds a single record payload; larger lengths are
	// corruption. Defaults to DefaultMaxRecord.
	MaxRecord int

	payload   []byte
	records   uint64
	bytes     uint64 // framed record bytes consumed after the header
	truncated bool
	done      bool
	err       error
}

// NewReader parses the stream header from r and returns an iterator
// over the records plus the format version found in the header. It
// fails when the magic does not match.
func NewReader(r io.Reader, magic uint32) (*Reader, uint32, error) {
	br := bufio.NewReader(r)
	var hdr [HeaderSize]byte
	if _, err := io.ReadFull(br, hdr[:]); err != nil {
		return nil, 0, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if binary.LittleEndian.Uint32(hdr[0:]) != magic {
		return nil, 0, fmt.Errorf("%w: bad magic", ErrCorrupt)
	}
	rd := &Reader{br: br, BaseErr: ErrCorrupt, MaxRecord: DefaultMaxRecord, payload: make([]byte, 0, 128)}
	return rd, binary.LittleEndian.Uint32(hdr[4:]), nil
}

// Records reports how many records have been returned so far.
func (r *Reader) Records() uint64 { return r.records }

// Truncated reports whether the stream ended without a verifiable
// footer — it was cut short and Next returned the recovered prefix.
// Only meaningful after Next has returned io.EOF.
func (r *Reader) Truncated() bool { return r.truncated }

// Next returns the next record payload, valid until the following Next
// call. It returns io.EOF at the end of the stream (including the
// recovered end of a truncated stream) and a BaseErr-wrapping error on
// corruption.
func (r *Reader) Next() ([]byte, error) {
	if r.err != nil {
		return nil, r.err
	}
	if r.done {
		return nil, io.EOF
	}
	p, err := r.next()
	if err != nil {
		r.done = true
		if err != io.EOF {
			r.err = err
		}
		return nil, err
	}
	r.records++
	return p, nil
}

func (r *Reader) next() ([]byte, error) {
	length, err := binary.ReadUvarint(r.br)
	if err != nil {
		// The stream ends at (or inside) a record boundary with no
		// footer: a crashed writer. Recover the prefix.
		r.truncated = true
		return nil, io.EOF
	}
	if length == 0 {
		return nil, r.readFooter()
	}
	if length > uint64(r.MaxRecord) {
		return nil, fmt.Errorf("%w: record %d: implausible length %d", r.BaseErr, r.records, length)
	}
	if cap(r.payload) < int(length)+4 {
		r.payload = make([]byte, length+4)
	}
	// Payload and trailing checksum in one read, into the reused buffer.
	pc := r.payload[:length+4]
	if _, err := io.ReadFull(r.br, pc); err != nil {
		r.truncated = true
		return nil, io.EOF
	}
	p := pc[:length]
	if binary.LittleEndian.Uint32(pc[length:]) != crc32.Checksum(p, crcTable) {
		// A checksum failure on the very last record is the torn tail
		// of a crashed writer; anywhere else it is corruption.
		if _, err := r.br.Peek(1); err != nil {
			r.truncated = true
			return nil, io.EOF
		}
		return nil, fmt.Errorf("%w: record %d: checksum mismatch", r.BaseErr, r.records)
	}
	r.bytes += uint64(uvarintLen(length) + int(length) + 4)
	return p, nil
}

// readFooter validates the end-of-stream footer. An unverifiable footer
// (short, or checksum mismatch — e.g. a preallocated file whose tail is
// zeros) counts as truncation; a verified footer whose counters
// disagree with the records read is corruption.
func (r *Reader) readFooter() error {
	var f [20]byte
	if _, err := io.ReadFull(r.br, f[:]); err != nil {
		r.truncated = true
		return io.EOF
	}
	if binary.LittleEndian.Uint32(f[16:]) != crc32.Checksum(f[:16], crcTable) {
		r.truncated = true
		return io.EOF
	}
	count := binary.LittleEndian.Uint64(f[0:])
	payloadBytes := binary.LittleEndian.Uint64(f[8:])
	if count != r.records {
		return fmt.Errorf("%w: footer count %d, read %d records", r.BaseErr, count, r.records)
	}
	if payloadBytes != r.bytes {
		return fmt.Errorf("%w: footer payload %d bytes, read %d", r.BaseErr, payloadBytes, r.bytes)
	}
	if _, err := r.br.Peek(1); err == nil {
		return fmt.Errorf("%w: data after footer", r.BaseErr)
	}
	return io.EOF
}

// uvarintLen returns the encoded size of v as a uvarint.
func uvarintLen(v uint64) int {
	n := 1
	for v >= 0x80 {
		v >>= 7
		n++
	}
	return n
}
