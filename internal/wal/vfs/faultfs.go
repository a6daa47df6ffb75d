package vfs

import (
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"sync/atomic"
	"syscall"
)

// Op names one filesystem operation class a Rule can match. OpWrite covers
// File.Write on any handle the FS opened; OpSync covers File.Sync (files and
// directories alike); OpTruncate covers File.Truncate.
type Op string

// Operation classes.
const (
	OpOpen     Op = "open"
	OpWrite    Op = "write"
	OpSync     Op = "sync"
	OpTruncate Op = "truncate"
	OpRename   Op = "rename"
	OpRemove   Op = "remove"
	OpRead     Op = "read"
	OpReadDir  Op = "readdir"
	OpMkdir    Op = "mkdir"
)

// Fault is the failure a matching rule injects.
type Fault int

// The five storage-fault kinds the robustness layer must absorb.
const (
	// FaultEIO fails the call with syscall.EIO and performs no work — the
	// classic dying-disk error.
	FaultEIO Fault = iota + 1
	// FaultENOSPC fails the call with syscall.ENOSPC. On a write, half the
	// buffer lands on disk first, the way a filling disk really behaves.
	FaultENOSPC
	// FaultShortWrite writes half the buffer and returns io.ErrShortWrite —
	// an interrupted write the kernel did not retry.
	FaultShortWrite
	// FaultSyncFail fails Sync with syscall.EIO while leaving written (but
	// possibly volatile) bytes in place — the fsyncgate failure mode.
	FaultSyncFail
	// FaultBitFlip flips one bit of the data returned by ReadFile — silent
	// media rot surfacing at read time.
	FaultBitFlip
)

func (f Fault) String() string {
	switch f {
	case FaultEIO:
		return "eio"
	case FaultENOSPC:
		return "enospc"
	case FaultShortWrite:
		return "short-write"
	case FaultSyncFail:
		return "sync-fail"
	case FaultBitFlip:
		return "bit-flip"
	default:
		return "fault(?)"
	}
}

// err maps the fault onto the errno a real filesystem would raise.
func (f Fault) err() error {
	switch f {
	case FaultENOSPC:
		return syscall.ENOSPC
	case FaultShortWrite:
		return io.ErrShortWrite
	default:
		return syscall.EIO
	}
}

// Rule describes one injected storage fault, in the style of
// faultinject.Rule: zero fields are wildcards, and OnCall pins the fault to
// the n-th matching call so a seeded schedule is deterministic.
type Rule struct {
	// Op restricts the rule to one operation class. Empty matches all.
	Op Op
	// Path, when non-empty, must be a substring of the target's base name
	// ("wal-" matches segments, "snap-" snapshots, ".tmp" checkpoint temps).
	// For renames the source name is matched.
	Path string
	// OnCall fires the rule on the n-th matching call, counted per rule
	// across the FaultFS's lifetime. Zero fires on every matching call.
	OnCall uint64
	// Count caps how many times the rule fires (0 = unlimited). A rule with
	// OnCall set fires at most once regardless.
	Count int
	// Fault is the injected failure kind.
	Fault Fault
	// BitOffset selects the byte whose lowest bit FaultBitFlip flips,
	// interpreted modulo the file length.
	BitOffset int64
}

// FaultFS wraps an inner FS and injects Rule-driven faults. It is safe for
// concurrent use; disarmed (SetArmed(false)) every call is a passthrough
// plus one atomic load, so a soak harness can open and close fault windows
// on a live log.
type FaultFS struct {
	inner FS
	armed atomic.Bool

	mu    sync.Mutex
	rules []Rule
	calls []uint64 // per-rule matching-call counter
	fires []int    // per-rule fire counter
	fired int      // faults fired, all rules
}

// NewFaultFS builds a fault injector over inner (typically OS). The injector
// starts armed.
func NewFaultFS(inner FS, rules ...Rule) *FaultFS {
	f := &FaultFS{inner: inner, rules: rules, calls: make([]uint64, len(rules)), fires: make([]int, len(rules))}
	f.armed.Store(true)
	return f
}

// SetArmed opens (true) or closes (false) the fault window.
func (f *FaultFS) SetArmed(on bool) { f.armed.Store(on) }

// Fired reports how many faults have fired.
func (f *FaultFS) Fired() int {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.fired
}

// match consults the rules for one operation and returns the fault to
// inject, if any. Matching-call counters advance only while armed, so a
// schedule's OnCall numbers count faultable calls inside the window.
func (f *FaultFS) match(op Op, path string) (Rule, bool) {
	if !f.armed.Load() {
		return Rule{}, false
	}
	base := filepath.Base(path)
	f.mu.Lock()
	defer f.mu.Unlock()
	for i, r := range f.rules {
		if r.Op != "" && r.Op != op {
			continue
		}
		if r.Path != "" && !strings.Contains(base, r.Path) {
			continue
		}
		f.calls[i]++
		if r.OnCall != 0 && f.calls[i] != r.OnCall {
			continue
		}
		if r.Count > 0 && f.fires[i] >= r.Count {
			continue
		}
		if r.OnCall != 0 && f.fires[i] >= 1 {
			continue
		}
		f.fires[i]++
		f.fired++
		return r, true
	}
	return Rule{}, false
}

func (f *FaultFS) OpenFile(path string, flag int, perm os.FileMode) (File, error) {
	if r, hit := f.match(OpOpen, path); hit {
		return nil, r.Fault.err()
	}
	h, err := f.inner.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &faultFile{File: h, fs: f, path: path}, nil
}

func (f *FaultFS) Rename(oldPath, newPath string) error {
	if r, hit := f.match(OpRename, oldPath); hit {
		return r.Fault.err()
	}
	return f.inner.Rename(oldPath, newPath)
}

func (f *FaultFS) Remove(path string) error {
	if r, hit := f.match(OpRemove, path); hit {
		return r.Fault.err()
	}
	return f.inner.Remove(path)
}

func (f *FaultFS) ReadFile(path string) ([]byte, error) {
	r, hit := f.match(OpRead, path)
	if hit && r.Fault != FaultBitFlip {
		return nil, r.Fault.err()
	}
	buf, err := f.inner.ReadFile(path)
	if err != nil {
		return buf, err
	}
	if hit && r.Fault == FaultBitFlip && len(buf) > 0 {
		off := r.BitOffset % int64(len(buf))
		if off < 0 {
			off += int64(len(buf))
		}
		buf[off] ^= 1
	}
	return buf, nil
}

func (f *FaultFS) ReadDir(path string) ([]fs.DirEntry, error) {
	if r, hit := f.match(OpReadDir, path); hit {
		return nil, r.Fault.err()
	}
	return f.inner.ReadDir(path)
}

func (f *FaultFS) MkdirAll(path string, perm os.FileMode) error {
	if r, hit := f.match(OpMkdir, path); hit {
		return r.Fault.err()
	}
	return f.inner.MkdirAll(path, perm)
}

// faultFile routes the write-side handle operations back through the rules,
// carrying the path the handle was opened with.
type faultFile struct {
	File
	fs   *FaultFS
	path string
}

func (h *faultFile) Write(p []byte) (int, error) {
	r, hit := h.fs.match(OpWrite, h.path)
	if !hit {
		return h.File.Write(p)
	}
	switch r.Fault {
	case FaultENOSPC, FaultShortWrite:
		// Half the buffer reaches the file before the failure — the torn
		// write the recovery path must classify and repair.
		n, err := h.File.Write(p[:len(p)/2])
		if err != nil {
			return n, err
		}
		return n, r.Fault.err()
	default:
		return 0, r.Fault.err()
	}
}

func (h *faultFile) Sync() error {
	if r, hit := h.fs.match(OpSync, h.path); hit {
		return r.Fault.err()
	}
	return h.File.Sync()
}

func (h *faultFile) Truncate(size int64) error {
	if r, hit := h.fs.match(OpTruncate, h.path); hit {
		return r.Fault.err()
	}
	return h.File.Truncate(size)
}
