//go:build linux || darwin || dragonfly || freebsd || netbsd || openbsd

package store

import (
	"fmt"
	"os"
	"syscall"
)

// loadImage maps the archive file read-only and shared, so replay slices
// the page cache instead of copying the file into the heap. The mapping
// outlives f (the caller may close the file once this returns); release
// unmaps it. An empty file maps to an empty image, since mmap refuses a
// zero length.
func loadImage(f *os.File, size int64) (data []byte, release func() error, err error) {
	if size == 0 {
		return nil, nil, nil
	}
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("%w: %d-byte archive exceeds the address space", ErrBinary, size)
	}
	data, err = syscall.Mmap(int(f.Fd()), 0, int(size), syscall.PROT_READ, syscall.MAP_SHARED)
	if err != nil {
		return nil, nil, fmt.Errorf("mapping archive: %w", err)
	}
	return data, func() error { return syscall.Munmap(data) }, nil
}
