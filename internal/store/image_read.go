//go:build !(linux || darwin || dragonfly || freebsd || netbsd || openbsd)

package store

import (
	"fmt"
	"io"
	"os"
)

// loadImage reads the archive file into memory: the loader for
// platforms whose standard library has no mmap. The image is decoded by
// the same code as a mapped one; nothing needs releasing.
func loadImage(f *os.File, size int64) (data []byte, release func() error, err error) {
	if size != int64(int(size)) {
		return nil, nil, fmt.Errorf("%w: %d-byte archive exceeds the address space", ErrBinary, size)
	}
	data = make([]byte, size)
	if _, err := io.ReadFull(f, data); err != nil {
		return nil, nil, fmt.Errorf("reading archive: %w", err)
	}
	return data, nil, nil
}
