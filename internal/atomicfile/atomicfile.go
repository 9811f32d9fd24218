// Package atomicfile writes files that other processes read while they
// are being produced: a reader sees either no file or the whole file,
// never a truncated or half-written one.
package atomicfile

import (
	"os"
	"path/filepath"
)

// WriteFile writes data to path atomically. The bytes go to a temporary
// file in the same directory, which is fsynced, given perm and renamed
// over path, so a reader that opens path at any moment gets the old
// contents or the new ones in full. On error the temporary file is
// removed and path is untouched.
func WriteFile(path string, data []byte, perm os.FileMode) error {
	dir, base := filepath.Split(path)
	if dir == "" {
		dir = "."
	}
	f, err := os.CreateTemp(dir, "."+base+".tmp-*")
	if err != nil {
		return err
	}
	tmp := f.Name()
	if err := writeSync(f, data, perm); err != nil {
		os.Remove(tmp)
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return err
	}
	return nil
}

// writeSync writes, fsyncs, chmods and closes f.
func writeSync(f *os.File, data []byte, perm os.FileMode) error {
	_, err := f.Write(data)
	if err == nil {
		err = f.Sync()
	}
	if err == nil {
		err = f.Chmod(perm)
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}
