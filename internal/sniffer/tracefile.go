package sniffer

import (
	"errors"
	"fmt"
	"io"
)

// The capture format is the streaming layout documented in stream.go.
// WriteTrace and ReadTrace are whole-slice wrappers over the streaming
// TraceWriter/TraceReader. Files of the retired fixed-record version 1
// are refused with ErrBadTraceFile.

// traceMagic identifies a capture file.
const traceMagic = 0x56554249 // "VUBI"

// ErrBadTraceFile reports a malformed capture file.
var ErrBadTraceFile = errors.New("sniffer: malformed trace file")

// WriteTrace writes the observations to w as one capture (header,
// records, footer). It is the whole-slice convenience wrapper around
// TraceWriter; long captures should stream through TraceWriter directly.
// Invalid observations (End < Start, negative timestamps, non-finite
// power, negative counts) abort the write with an error instead of being
// silently mangled.
func WriteTrace(w io.Writer, obs []Observation) error {
	tw, err := NewTraceWriter(w)
	if err != nil {
		return err
	}
	for i, o := range obs {
		if err := tw.Write(o); err != nil {
			return fmt.Errorf("record %d: %w", i, err)
		}
	}
	return tw.Close()
}

// ReadTrace parses a capture file into a slice. It is the whole-slice
// convenience wrapper around TraceReader; long captures should iterate
// TraceReader directly. A truncated capture yields its recovered valid
// prefix without error (use TraceReader to distinguish).
func ReadTrace(r io.Reader) ([]Observation, error) {
	tr, err := NewTraceReader(r)
	if err != nil {
		return nil, err
	}
	var out []Observation
	for {
		o, err := tr.Next()
		if err == io.EOF {
			return out, nil
		}
		if err != nil {
			return nil, err
		}
		out = append(out, o)
	}
}
