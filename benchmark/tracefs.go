package main

import (
	"io/fs"
	"path/filepath"
	"strings"
	"sync"
	"time"

	"github.com/soteria-analysis/soteria/internal/fsio"
)

// fsCounts are the storage tier's file-system costs, split by who
// issued them: the result store (under storeDir) or the job journal.
type fsCounts struct {
	fsyncs     int64 // file and directory fsyncs, store and journal
	fsyncTime  time.Duration
	storeWrite time.Duration // create, write, fsync, close, rename and directory fsync in the store
	storeRead  time.Duration // record reads from the store, misses included
}

// timedFS wraps an fsio.FS, timing and counting the calls the store
// and journal make through it.
type timedFS struct {
	inner    fsio.FS
	storeDir string

	mu sync.Mutex
	c  fsCounts
}

func newTimedFS(storeDir string) *timedFS {
	return &timedFS{inner: fsio.OS{}, storeDir: filepath.Clean(storeDir)}
}

func (t *timedFS) counts() fsCounts {
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.c
}

func (t *timedFS) inStore(name string) bool {
	name = filepath.Clean(name)
	return name == t.storeDir || strings.HasPrefix(name, t.storeDir+string(filepath.Separator))
}

// record charges one call's duration.
func (t *timedFS) record(start time.Time, store, fsync, read bool) {
	d := time.Since(start)
	t.mu.Lock()
	defer t.mu.Unlock()
	if fsync {
		t.c.fsyncs++
		t.c.fsyncTime += d
	}
	switch {
	case store && read:
		t.c.storeRead += d
	case store:
		t.c.storeWrite += d
	}
}

func (t *timedFS) MkdirAll(dir string, perm fs.FileMode) error { return t.inner.MkdirAll(dir, perm) }

func (t *timedFS) CreateTemp(dir, pattern string) (fsio.File, error) {
	start := time.Now()
	f, err := t.inner.CreateTemp(dir, pattern)
	t.record(start, t.inStore(dir), false, false)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, store: t.inStore(dir)}, nil
}

func (t *timedFS) OpenAppend(name string) (fsio.File, error) {
	f, err := t.inner.OpenAppend(name)
	if err != nil {
		return nil, err
	}
	return &timedFile{File: f, fs: t, store: t.inStore(name)}, nil
}

func (t *timedFS) ReadFile(name string) ([]byte, error) {
	start := time.Now()
	data, err := t.inner.ReadFile(name)
	t.record(start, t.inStore(name), false, true)
	return data, err
}

func (t *timedFS) ReadDir(dir string) ([]fs.DirEntry, error) { return t.inner.ReadDir(dir) }

func (t *timedFS) Rename(oldpath, newpath string) error {
	start := time.Now()
	err := t.inner.Rename(oldpath, newpath)
	t.record(start, t.inStore(newpath), false, false)
	return err
}

func (t *timedFS) Remove(name string) error { return t.inner.Remove(name) }

func (t *timedFS) SyncDir(dir string) error {
	start := time.Now()
	err := t.inner.SyncDir(dir)
	t.record(start, t.inStore(dir), true, false)
	return err
}

// timedFile times writes, fsyncs and closes of one file.
type timedFile struct {
	fsio.File
	fs    *timedFS
	store bool
}

func (f *timedFile) Write(p []byte) (int, error) {
	start := time.Now()
	n, err := f.File.Write(p)
	f.fs.record(start, f.store, false, false)
	return n, err
}

func (f *timedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.record(start, f.store, true, false)
	return err
}

func (f *timedFile) Close() error {
	start := time.Now()
	err := f.File.Close()
	f.fs.record(start, f.store, false, false)
	return err
}
