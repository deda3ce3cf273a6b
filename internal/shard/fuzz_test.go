package shard

import (
	"bytes"
	"io"
	"reflect"
	"testing"

	"repro/internal/core"
	"repro/internal/experiments"
)

// FuzzWorkerStream: whatever bytes a worker's stdout carries, reading
// them through the protocol reader and decoding every record never
// panics, and every failure comes back as an error — the coordinator
// reads these streams from child processes it does not trust to be
// intact.
func FuzzWorkerStream(f *testing.F) {
	var buf bytes.Buffer
	w, err := newMsgWriter(&buf)
	if err != nil {
		f.Fatal(err)
	}
	res := core.Result{ID: "T1", Title: "seed", Notes: []string{"kept"}}
	res.AddCheck("x", "a", "a", true)
	rec, err := experiments.EncodeCheckpointRecord(experiments.Options{Seed: 3, Quick: true}, res)
	if err != nil {
		f.Fatal(err)
	}
	for _, send := range []func() error{
		func() error { return w.send(tagHeartbeat, nil) },
		func() error { return w.send(tagStart, startMsg{Seq: 1, ID: "T1"}) },
		func() error { return w.sendRaw(tagResult, rec) },
		func() error { return w.send(tagDone, doneMsg{Seq: 1}) },
		func() error { return w.sendRaw('?', []byte("unknown tag")) },
		func() error { return w.sendRaw(tagResult, []byte("not gob")) },
		w.close,
	} {
		if err := send(); err != nil {
			f.Fatal(err)
		}
	}
	valid := buf.Bytes()
	// The seed stream decodes to the four events in order, then two
	// errors: the harness below is not vacuous.
	mr, err := newMsgReader(bytes.NewReader(valid))
	if err != nil {
		f.Fatal(err)
	}
	var kinds []int
	errs := 0
	for {
		tag, body, err := mr.next()
		if err == io.EOF {
			break
		}
		if err != nil {
			f.Fatal(err)
		}
		if ev, err := decodeWorkerRecord(tag, body); err != nil {
			errs++
		} else {
			kinds = append(kinds, ev.kind)
		}
	}
	if want := []int{evHeartbeat, evStart, evResult, evDone}; !reflect.DeepEqual(kinds, want) || errs != 2 {
		f.Fatalf("seed stream decoded to kinds %v and %d errors, want %v and 2", kinds, errs, want)
	}
	f.Add(valid)
	f.Add([]byte{})
	f.Add(valid[:len(valid)/2])
	flipped := append([]byte(nil), valid...)
	flipped[len(flipped)*2/3] ^= 0xff
	f.Add(flipped)

	f.Fuzz(func(t *testing.T, data []byte) {
		mr, err := newMsgReader(bytes.NewReader(data))
		if err != nil {
			return
		}
		for {
			tag, body, err := mr.next()
			if err != nil {
				return
			}
			ev, err := decodeWorkerRecord(tag, body)
			if err != nil {
				continue
			}
			switch ev.kind {
			case evHeartbeat, evStart, evResult, evDone:
			default:
				t.Fatalf("tag %q decoded to event kind %d", tag, ev.kind)
			}
		}
	})
}
