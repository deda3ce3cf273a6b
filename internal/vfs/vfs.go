// Package vfs is the filesystem seam every persistence path in this
// repository writes through: campaign checkpoints (campaign.ckpt),
// sniffer captures (.vubiq), mmsimd job directories (job.json,
// report.txt), and shard capture staging.
//
// The seam exists because 60 GHz links fail in bursty, partial ways —
// and so do disks. A production daemon that resumes killed campaigns
// byte-identically is only as durable as its weakest fsync, so the
// interface makes every durability point explicit (File.Sync, SyncDir)
// and injectable:
//
//   - OS() is the passthrough to the real filesystem.
//   - MemFS models a crashable disk: it separates what a process has
//     written from what has been synced, journals every mutation, and
//     can materialize the disk image a power cut at any point would
//     leave behind (see crashtest for the enumeration harness).
//   - FaultFS wraps any FS with a deterministic, replayable fault
//     schedule (torn writes, short writes, dropped syncs, ENOSPC after
//     a byte budget, EIO on read) driven by stats.RNG.ForkAt
//     substreams.
//
// The contract every surface writes against (and crashtest enforces):
//
//  1. Data before name: fsync a file's bytes before publishing them
//     under their final name (rename), then fsync the parent directory
//     — otherwise a crash can expose an empty or torn file where the
//     rename is already visible.
//  2. Append-only streams sync at their record boundaries; a crash
//     loses at most the unsynced tail, which readers salvage as a
//     valid prefix (internal/recio's truncation policy).
//  3. A failed write seals the stream: no further bytes are attempted
//     (in particular no footer over a torn tail), and the failure is
//     classified as a *FaultError so campaigns degrade to structured
//     FAIL diagnostics instead of panicking.
package vfs

import (
	"errors"
	"fmt"
	"io"
	"io/fs"
	"path/filepath"
)

// File is one open file of an FS. Writers are sequential (append-only
// from the moment of Create); Sync is the durability point — bytes
// written before a successful Sync survive a crash, bytes after it may
// not.
type File interface {
	io.Reader
	io.Writer
	io.Closer
	// Sync flushes the file's written data to stable storage.
	Sync() error
	// Name returns the path the file was opened with.
	Name() string
}

// FS is the filesystem surface the persistence layers use. It is
// deliberately small: create/open/rename/remove plus the two explicit
// durability hooks (File.Sync and SyncDir).
type FS interface {
	// Create creates or truncates the named file for writing.
	Create(name string) (File, error)
	// Open opens the named file for reading.
	Open(name string) (File, error)
	// Rename atomically replaces newpath with oldpath. Durability of
	// the name change requires SyncDir on the parent directory.
	Rename(oldpath, newpath string) error
	// Remove deletes the named file.
	Remove(name string) error
	// RemoveAll deletes path and everything below it.
	RemoveAll(path string) error
	// MkdirAll creates the directory and any missing parents.
	MkdirAll(path string, perm fs.FileMode) error
	// ReadDir lists the directory's entries sorted by name.
	ReadDir(name string) ([]fs.DirEntry, error)
	// SyncDir flushes the directory's entries (creates, renames,
	// removes under it) to stable storage.
	SyncDir(name string) error
}

// ErrDiskFault is the errors.Is target every classified persistence
// failure matches, whatever the underlying cause (ENOSPC, EIO, a torn
// write, an injected fault).
var ErrDiskFault = errors.New("vfs: disk fault")

// FaultError is a classified persistence failure: which operation, on
// which path, failed how. Campaign failure synthesis digs it out of
// error chains (experiments' failureAs) the same way deadlines and
// audit violations are classified.
type FaultError struct {
	// Op names the failed operation ("write", "sync", "rename", ...).
	Op string
	// Path is the file the operation targeted.
	Path string
	// Err is the underlying cause.
	Err error
}

func (e *FaultError) Error() string {
	return fmt.Sprintf("disk fault: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *FaultError) Unwrap() error { return e.Err }

// Is reports ErrDiskFault so errors.Is(err, vfs.ErrDiskFault) matches
// any classified fault without unwrapping to the concrete type.
func (e *FaultError) Is(target error) bool { return target == ErrDiskFault }

// WrapFault classifies err as a disk fault on (op, path). A nil err
// passes through; an error that already is a *FaultError is returned
// unchanged so double-wrapping never buries the original operation.
func WrapFault(op, path string, err error) error {
	if err == nil {
		return nil
	}
	var fe *FaultError
	if errors.As(err, &fe) {
		return err
	}
	return &FaultError{Op: op, Path: path, Err: err}
}

// AsFault digs a *FaultError out of an error chain.
func AsFault(err error) (*FaultError, bool) {
	var fe *FaultError
	if errors.As(err, &fe) {
		return fe, true
	}
	return nil, false
}

// ReadFile reads the named file whole.
func ReadFile(fsys FS, name string) ([]byte, error) {
	f, err := fsys.Open(name)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return io.ReadAll(f)
}

// WriteFileAtomic durably replaces name with data: write to a sibling
// temp file, fsync it, rename over name, fsync the parent directory.
// After it returns nil, a crash at any point leaves either the old
// complete file or the new complete file — never a torn, empty, or
// missing one. On error the temp file is removed.
func WriteFileAtomic(fsys FS, name string, data []byte) error {
	tmp := name + ".tmp"
	f, err := fsys.Create(tmp)
	if err != nil {
		return WrapFault("create", tmp, err)
	}
	if _, err := f.Write(data); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return WrapFault("write", tmp, err)
	}
	// Data before name: the bytes must be durable before the rename can
	// legally expose them.
	if err := f.Sync(); err != nil {
		f.Close()
		fsys.Remove(tmp)
		return WrapFault("sync", tmp, err)
	}
	if err := f.Close(); err != nil {
		fsys.Remove(tmp)
		return WrapFault("close", tmp, err)
	}
	if err := fsys.Rename(tmp, name); err != nil {
		fsys.Remove(tmp)
		return WrapFault("rename", name, err)
	}
	if err := fsys.SyncDir(filepath.Dir(name)); err != nil {
		return WrapFault("syncdir", filepath.Dir(name), err)
	}
	return nil
}
