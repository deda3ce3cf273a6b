package vfs

import (
	"errors"
	"fmt"
	"io/fs"
	"strconv"
	"strings"
	"sync"
	"syscall"

	"repro/internal/stats"
)

// ErrInjected is the synthetic I/O error torn writes, short writes, and
// read faults carry (the injected analogue of EIO).
var ErrInjected = errors.New("injected I/O error")

// FaultSpec configures a FaultFS. The schedule is fully determined by
// Seed: every filesystem operation draws its fate from the
// stats.RNG.ForkAt substream indexed by a global operation counter, so
// a given (spec, operation sequence) replays bit-identically — the
// same property the simulator's impairment schedules have.
type FaultSpec struct {
	// Seed selects the fault substream family.
	Seed uint64
	// ENOSPCAfter, when positive, is the total byte budget across the
	// filesystem: the write that crosses it persists only the bytes
	// that fit and fails with ENOSPC, and every later write or create
	// fails immediately — a full disk.
	ENOSPCAfter int64
	// PTornWrite is the per-write probability that only an RNG-chosen
	// prefix of the payload reaches the disk and the write fails.
	PTornWrite float64
	// PShortWrite is the per-write probability of a short write: a
	// prefix persists and the write fails with io.ErrShortWrite
	// semantics.
	PShortWrite float64
	// PDropSync is the per-sync probability that Sync or SyncDir
	// reports success without making anything durable — a lying disk
	// cache. Only observable through crash images (MemFS inner).
	PDropSync float64
	// PEIORead is the per-read probability of a read fault.
	PEIORead float64
}

// Enabled reports whether the spec injects anything at all.
func (s FaultSpec) Enabled() bool {
	return s.ENOSPCAfter > 0 || s.PTornWrite > 0 || s.PShortWrite > 0 || s.PDropSync > 0 || s.PEIORead > 0
}

// String renders the spec in ParseFaultSpec's syntax.
func (s FaultSpec) String() string {
	return fmt.Sprintf("seed=%d,enospc=%d,torn=%g,short=%g,dropsync=%g,eioread=%g",
		s.Seed, s.ENOSPCAfter, s.PTornWrite, s.PShortWrite, s.PDropSync, s.PEIORead)
}

// ParseFaultSpec parses "key=value" pairs separated by commas. Keys:
// seed (uint64), enospc (non-negative byte budget), torn, short,
// dropsync, eioread (probabilities in [0,1]). Unknown keys and malformed
// or out-of-range values (a negative budget, a NaN probability) are
// errors, so a spec never silently injects nothing. An empty string is
// the zero spec (no faults).
func ParseFaultSpec(s string) (FaultSpec, error) {
	var spec FaultSpec
	if strings.TrimSpace(s) == "" {
		return spec, nil
	}
	for _, kv := range strings.Split(s, ",") {
		k, v, ok := strings.Cut(strings.TrimSpace(kv), "=")
		if !ok {
			return spec, fmt.Errorf("fault spec: %q is not key=value", kv)
		}
		var err error
		switch k {
		case "seed":
			spec.Seed, err = strconv.ParseUint(v, 10, 64)
		case "enospc":
			spec.ENOSPCAfter, err = strconv.ParseInt(v, 10, 64)
			if err == nil && spec.ENOSPCAfter < 0 {
				err = fmt.Errorf("byte budget %d is negative", spec.ENOSPCAfter)
			}
		case "torn":
			spec.PTornWrite, err = parseProb(v)
		case "short":
			spec.PShortWrite, err = parseProb(v)
		case "dropsync":
			spec.PDropSync, err = parseProb(v)
		case "eioread":
			spec.PEIORead, err = parseProb(v)
		default:
			return spec, fmt.Errorf("fault spec: unknown key %q", k)
		}
		if err != nil {
			return spec, fmt.Errorf("fault spec: %s: %v", k, err)
		}
	}
	return spec, nil
}

func parseProb(v string) (float64, error) {
	p, err := strconv.ParseFloat(v, 64)
	if err != nil {
		return 0, err
	}
	// Negated so NaN, which fails every comparison, is rejected too.
	if !(p >= 0 && p <= 1) {
		return 0, fmt.Errorf("probability %g outside [0, 1]", p)
	}
	return p, nil
}

// FaultFS wraps an inner FS with the deterministic fault schedule of a
// FaultSpec. Wrap a MemFS to combine injected faults with crash-image
// enumeration, or the OS filesystem to chaos-test a real binary
// (mmsim -fault-disk).
type FaultFS struct {
	inner FS
	spec  FaultSpec

	mu      sync.Mutex
	rng     *stats.RNG
	opIndex uint64
	written int64
}

// NewFaultFS wraps inner with the spec's schedule.
func NewFaultFS(inner FS, spec FaultSpec) *FaultFS {
	return &FaultFS{inner: inner, spec: spec, rng: stats.NewRNG(spec.Seed ^ 0xD15CFA17)}
}

// draw returns the decision substream for the next operation.
func (f *FaultFS) draw() *stats.RNG {
	r := f.rng.ForkAt(f.opIndex)
	f.opIndex++
	return r
}

// full reports whether the byte budget is exhausted. Callers hold f.mu.
func (f *FaultFS) full() bool {
	return f.spec.ENOSPCAfter > 0 && f.written >= f.spec.ENOSPCAfter
}

func (f *FaultFS) Create(name string) (File, error) {
	f.mu.Lock()
	full := f.full()
	f.mu.Unlock()
	if full {
		return nil, &FaultError{Op: "create", Path: name, Err: syscall.ENOSPC}
	}
	inner, err := f.inner.Create(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Open(name string) (File, error) {
	inner, err := f.inner.Open(name)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: inner}, nil
}

func (f *FaultFS) Rename(oldpath, newpath string) error { return f.inner.Rename(oldpath, newpath) }
func (f *FaultFS) Remove(name string) error             { return f.inner.Remove(name) }
func (f *FaultFS) RemoveAll(path string) error          { return f.inner.RemoveAll(path) }
func (f *FaultFS) MkdirAll(path string, perm fs.FileMode) error {
	return f.inner.MkdirAll(path, perm)
}
func (f *FaultFS) ReadDir(name string) ([]fs.DirEntry, error) { return f.inner.ReadDir(name) }

func (f *FaultFS) SyncDir(name string) error {
	f.mu.Lock()
	drop := f.spec.PDropSync > 0 && f.draw().Float64() < f.spec.PDropSync
	f.mu.Unlock()
	if drop {
		return nil // silently not durable
	}
	return f.inner.SyncDir(name)
}

// faultFile interposes the schedule on one open file.
type faultFile struct {
	fs    *FaultFS
	inner File
}

func (ff *faultFile) Name() string { return ff.inner.Name() }

func (ff *faultFile) Read(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	fault := f.spec.PEIORead > 0 && f.draw().Float64() < f.spec.PEIORead
	f.mu.Unlock()
	if fault {
		return 0, &FaultError{Op: "read", Path: ff.Name(), Err: ErrInjected}
	}
	return ff.inner.Read(p)
}

// Write applies, in order: the ENOSPC byte budget (prefix persists,
// budget exhausts), then torn-write, then short-write injection. The
// prefix that "reached the disk" is really written through, so crash
// images over a MemFS inner carry the torn bytes.
func (ff *faultFile) Write(p []byte) (int, error) {
	f := ff.fs
	f.mu.Lock()
	if f.full() {
		f.mu.Unlock()
		return 0, &FaultError{Op: "write", Path: ff.Name(), Err: syscall.ENOSPC}
	}
	keep := len(p)
	var failErr error
	if f.spec.ENOSPCAfter > 0 && f.written+int64(len(p)) > f.spec.ENOSPCAfter {
		keep = int(f.spec.ENOSPCAfter - f.written)
		failErr = &FaultError{Op: "write", Path: ff.Name(), Err: syscall.ENOSPC}
	} else {
		r := f.draw()
		if f.spec.PTornWrite > 0 && r.Float64() < f.spec.PTornWrite {
			keep = r.Intn(len(p) + 1)
			failErr = &FaultError{Op: "write", Path: ff.Name(), Err: fmt.Errorf("torn at byte %d of %d: %w", keep, len(p), ErrInjected)}
		} else if f.spec.PShortWrite > 0 && r.Float64() < f.spec.PShortWrite {
			keep = r.Intn(len(p) + 1)
			failErr = &FaultError{Op: "write", Path: ff.Name(), Err: fmt.Errorf("short write (%d of %d): %w", keep, len(p), ErrInjected)}
		}
	}
	f.written += int64(keep)
	f.mu.Unlock()

	n := 0
	if keep > 0 {
		var err error
		n, err = ff.inner.Write(p[:keep])
		if err != nil {
			return n, err
		}
	}
	if failErr != nil {
		return n, failErr
	}
	return n, nil
}

func (ff *faultFile) Sync() error {
	f := ff.fs
	f.mu.Lock()
	drop := f.spec.PDropSync > 0 && f.draw().Float64() < f.spec.PDropSync
	f.mu.Unlock()
	if drop {
		return nil // reported durable, actually not
	}
	return ff.inner.Sync()
}

func (ff *faultFile) Close() error { return ff.inner.Close() }

var _ FS = (*FaultFS)(nil)
