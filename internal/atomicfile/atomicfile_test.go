package atomicfile

import (
	"os"
	"path/filepath"
	"testing"
)

func TestWriteFileReplacesWholeAndLeavesNoTemp(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "out.json")
	for _, body := range []string{"first version\n", "second\n"} {
		if err := WriteFile(path, []byte(body), 0o640); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if string(got) != body {
			t.Fatalf("read %q, want %q", got, body)
		}
	}
	st, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if st.Mode().Perm() != 0o640 {
		t.Fatalf("mode %v, want 0640", st.Mode().Perm())
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		t.Fatalf("directory holds %d entries, want only out.json", len(entries))
	}
}

func TestWriteFileMissingDirFails(t *testing.T) {
	path := filepath.Join(t.TempDir(), "no-such-dir", "out.json")
	if err := WriteFile(path, []byte("x"), 0o644); err == nil {
		t.Fatal("write into a missing directory succeeded")
	}
}
