package vfs

import (
	"errors"
	"fmt"
	"syscall"
	"testing"
)

// driveWorkload runs a fixed write sequence against fs, returning a
// transcript of byte counts and error strings — the determinism
// fingerprint two identical FaultFS runs must agree on.
func driveWorkload(fs FS) []string {
	var log []string
	note := func(format string, args ...any) { log = append(log, fmt.Sprintf(format, args...)) }
	f, err := fs.Create("w")
	if err != nil {
		note("create: %v", err)
		return log
	}
	for i := 0; i < 40; i++ {
		n, err := f.Write([]byte("payload-payload-payload"))
		note("write %d: n=%d err=%v", i, n, err)
		if i%5 == 0 {
			note("sync %d: %v", i, f.Sync())
		}
	}
	note("close: %v", f.Close())
	return log
}

func TestFaultScheduleIsReplayable(t *testing.T) {
	spec := FaultSpec{Seed: 42, PTornWrite: 0.2, PShortWrite: 0.2, PDropSync: 0.3}
	a := driveWorkload(NewFaultFS(NewMemFS(), spec))
	b := driveWorkload(NewFaultFS(NewMemFS(), spec))
	if len(a) != len(b) {
		t.Fatalf("transcript lengths differ: %d vs %d", len(a), len(b))
	}
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("transcripts diverge at %d:\n  %s\n  %s", i, a[i], b[i])
		}
	}
	// And a different seed must actually change something.
	c := driveWorkload(NewFaultFS(NewMemFS(), FaultSpec{Seed: 43, PTornWrite: 0.2, PShortWrite: 0.2, PDropSync: 0.3}))
	same := len(a) == len(c)
	if same {
		for i := range a {
			if a[i] != c[i] {
				same = false
				break
			}
		}
	}
	if same {
		t.Fatal("seeds 42 and 43 produced identical fault schedules")
	}
}

func TestENOSPCBudget(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultSpec{ENOSPCAfter: 10})
	f, err := ffs.Create("f")
	if err != nil {
		t.Fatal(err)
	}
	if n, err := f.Write([]byte("123456")); n != 6 || err != nil {
		t.Fatalf("within budget: n=%d err=%v", n, err)
	}
	// Crossing the budget persists only the bytes that fit.
	n, err := f.Write([]byte("789012"))
	if n != 4 {
		t.Fatalf("crossing write persisted %d bytes, want 4", n)
	}
	if !errors.Is(err, syscall.ENOSPC) || !errors.Is(err, ErrDiskFault) {
		t.Fatalf("crossing write err = %v, want ENOSPC disk fault", err)
	}
	// The disk is now full: everything fails fast.
	if _, err := f.Write([]byte("x")); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-budget write err = %v", err)
	}
	if _, err := ffs.Create("g"); !errors.Is(err, syscall.ENOSPC) {
		t.Fatalf("post-budget create err = %v", err)
	}
	if data, _ := mem.ReadFileAt("f"); string(data) != "1234567890" {
		t.Fatalf("inner contents %q, want the 10-byte budget", data)
	}
}

func TestDroppedSyncIsSilentButNotDurable(t *testing.T) {
	mem := NewMemFS()
	ffs := NewFaultFS(mem, FaultSpec{Seed: 7, PDropSync: 1})
	f, _ := ffs.Create("f")
	f.Write([]byte("data"))
	if err := f.Sync(); err != nil {
		t.Fatalf("dropped sync must report success, got %v", err)
	}
	if err := ffs.SyncDir("."); err != nil {
		t.Fatalf("dropped syncdir must report success, got %v", err)
	}
	for _, img := range mem.CrashImages(mem.OpCount()) {
		if img.Mode != ImageSynced {
			continue
		}
		if _, ok := img.Files["f"]; ok {
			t.Fatal("dropped sync still made the file durable")
		}
	}
}

func TestEIORead(t *testing.T) {
	mem := NewMemFS()
	f, _ := mem.Create("f")
	f.Write([]byte("data"))
	f.Close()
	ffs := NewFaultFS(mem, FaultSpec{Seed: 1, PEIORead: 1})
	r, err := ffs.Open("f")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := r.Read(make([]byte, 4)); !errors.Is(err, ErrInjected) || !errors.Is(err, ErrDiskFault) {
		t.Fatalf("read err = %v, want injected disk fault", err)
	}
}

func TestParseFaultSpec(t *testing.T) {
	spec, err := ParseFaultSpec("seed=9,enospc=4096,torn=0.25,short=0.1,dropsync=0.05,eioread=0.01")
	if err != nil {
		t.Fatal(err)
	}
	want := FaultSpec{Seed: 9, ENOSPCAfter: 4096, PTornWrite: 0.25, PShortWrite: 0.1, PDropSync: 0.05, PEIORead: 0.01}
	if spec != want {
		t.Fatalf("spec = %+v, want %+v", spec, want)
	}
	if !spec.Enabled() {
		t.Fatal("parsed spec reports disabled")
	}
	if rt, err := ParseFaultSpec(spec.String()); err != nil || rt != spec {
		t.Fatalf("String round-trip: %+v, %v", rt, err)
	}
	if s, err := ParseFaultSpec(""); err != nil || s.Enabled() {
		t.Fatalf("empty spec: %+v, %v", s, err)
	}
	for _, bad := range []string{"nope=1", "torn=1.5", "seed", "enospc=x", "torn=NaN", "short=nan", "enospc=-5"} {
		if _, err := ParseFaultSpec(bad); err == nil {
			t.Errorf("ParseFaultSpec(%q) accepted", bad)
		}
	}
}

// FuzzParseFaultSpec checks that every accepted spec is in range — each
// probability in [0,1], a non-negative byte budget — and that String
// renders it back to an equal spec.
func FuzzParseFaultSpec(f *testing.F) {
	f.Add("seed=9,enospc=4096,torn=0.25,short=0.1,dropsync=0.05,eioread=0.01")
	f.Add("")
	f.Add("torn=NaN")
	f.Add("enospc=-5")
	f.Add("dropsync=1e-300,eioread=1,seed=18446744073709551615")
	f.Fuzz(func(t *testing.T, s string) {
		spec, err := ParseFaultSpec(s)
		if err != nil {
			return
		}
		for _, p := range []float64{spec.PTornWrite, spec.PShortWrite, spec.PDropSync, spec.PEIORead} {
			if !(p >= 0 && p <= 1) {
				t.Fatalf("ParseFaultSpec(%q) accepted probability %v", s, p)
			}
		}
		if spec.ENOSPCAfter < 0 {
			t.Fatalf("ParseFaultSpec(%q) accepted byte budget %d", s, spec.ENOSPCAfter)
		}
		back, err := ParseFaultSpec(spec.String())
		if err != nil || back != spec {
			t.Fatalf("ParseFaultSpec(%q) = %+v; String %q reparses to %+v, %v", s, spec, spec.String(), back, err)
		}
	})
}
