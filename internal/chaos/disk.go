package chaos

import (
	"errors"
	"io"
	"os"
	"sync"
	"sync/atomic"
	"syscall"

	"icewafl/internal/netstream"
)

// ErrDiskFull is the error a FaultFS returns once its byte budget is
// exhausted; it wraps syscall.ENOSPC so callers matching on the real
// errno see the same thing.
var ErrDiskFull = &diskFullError{}

type diskFullError struct{}

func (*diskFullError) Error() string { return "chaos: injected disk full" }
func (*diskFullError) Unwrap() error { return syscall.ENOSPC }

// errInjectedSync is returned by a scheduled fsync failure.
var errInjectedSync = errors.New("chaos: injected fsync failure")

// FaultFS wraps a netstream.FS (the real filesystem by default) and
// injects disk faults on a deterministic schedule: periodic short
// writes, periodic fsync failures, and a total write budget after which
// every write fails with ENOSPC. It exercises the WAL's self-healing
// append path (truncate-and-retry after a short write, recovery after a
// failed sync) without needing a faulty disk.
//
// The schedule is shared across every file the FS opens, so "every Nth
// write" counts writes globally — matching how a single WAL channel
// appends through segment rotation.
type FaultFS struct {
	// Inner is the wrapped filesystem (default netstream.OSFS()).
	Inner netstream.FS
	// ShortWriteEvery makes every Nth write deliver only half its bytes
	// and report io.ErrShortWrite (0 = never).
	ShortWriteEvery int
	// SyncFailEvery makes every Nth fsync fail (0 = never), directory
	// fsyncs (SyncDir) included. The data is still on the file; only the
	// durability barrier is denied.
	SyncFailEvery int
	// FailAfterBytes is a total write budget: once this many bytes have
	// been written through the FS, further writes fail with ErrDiskFull
	// (wrapping syscall.ENOSPC). 0 = unlimited.
	FailAfterBytes int64

	mu          sync.Mutex
	writes      int64
	syncs       int64
	written     int64
	shortWrites atomic.Uint64
	syncFails   atomic.Uint64
	enospc      atomic.Uint64
}

// ShortWrites returns how many short writes were injected.
func (f *FaultFS) ShortWrites() uint64 { return f.shortWrites.Load() }

// SyncFails returns how many fsync failures were injected.
func (f *FaultFS) SyncFails() uint64 { return f.syncFails.Load() }

// ENOSPCs returns how many writes were rejected by the byte budget.
func (f *FaultFS) ENOSPCs() uint64 { return f.enospc.Load() }

func (f *FaultFS) inner() netstream.FS {
	if f.Inner != nil {
		return f.Inner
	}
	return netstream.OSFS()
}

// OpenFile implements netstream.FS.
func (f *FaultFS) OpenFile(name string, flag int, perm os.FileMode) (netstream.File, error) {
	file, err := f.inner().OpenFile(name, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{fs: f, inner: file}, nil
}

// ReadDir implements netstream.FS.
func (f *FaultFS) ReadDir(name string) ([]os.DirEntry, error) { return f.inner().ReadDir(name) }

// Remove implements netstream.FS.
func (f *FaultFS) Remove(name string) error { return f.inner().Remove(name) }

// MkdirAll implements netstream.FS.
func (f *FaultFS) MkdirAll(name string, perm os.FileMode) error {
	return f.inner().MkdirAll(name, perm)
}

// SyncDir implements netstream.FS, on the same failure schedule as a
// file's Sync.
func (f *FaultFS) SyncDir(name string) error {
	if f.failSync() {
		return errInjectedSync
	}
	return f.inner().SyncDir(name)
}

// failSync advances the fsync schedule and reports whether this fsync
// is the one to fail.
func (f *FaultFS) failSync() bool {
	f.mu.Lock()
	f.syncs++
	fail := f.SyncFailEvery > 0 && f.syncs%int64(f.SyncFailEvery) == 0
	f.mu.Unlock()
	if fail {
		f.syncFails.Add(1)
	}
	return fail
}

// faultFile intercepts Write and Sync; everything else passes through.
type faultFile struct {
	fs    *FaultFS
	inner netstream.File
}

func (ff *faultFile) Read(p []byte) (int, error)                { return ff.inner.Read(p) }
func (ff *faultFile) Seek(off int64, whence int) (int64, error) { return ff.inner.Seek(off, whence) }
func (ff *faultFile) Close() error                              { return ff.inner.Close() }
func (ff *faultFile) Truncate(size int64) error                 { return ff.inner.Truncate(size) }

func (ff *faultFile) Write(p []byte) (int, error) {
	fs := ff.fs
	fs.mu.Lock()
	fs.writes++
	overBudget := fs.FailAfterBytes > 0 && fs.written >= fs.FailAfterBytes
	short := !overBudget && fs.ShortWriteEvery > 0 && fs.writes%int64(fs.ShortWriteEvery) == 0 && len(p) > 1
	fs.mu.Unlock()

	if overBudget {
		fs.enospc.Add(1)
		return 0, ErrDiskFull
	}
	if short {
		fs.shortWrites.Add(1)
		n, err := ff.inner.Write(p[:len(p)/2])
		fs.mu.Lock()
		fs.written += int64(n)
		fs.mu.Unlock()
		if err != nil {
			return n, err
		}
		return n, io.ErrShortWrite
	}
	n, err := ff.inner.Write(p)
	fs.mu.Lock()
	fs.written += int64(n)
	fs.mu.Unlock()
	return n, err
}

func (ff *faultFile) Sync() error {
	if ff.fs.failSync() {
		return errInjectedSync
	}
	return ff.inner.Sync()
}
