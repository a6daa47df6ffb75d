package benchrec

import (
	"os"
	"path/filepath"
	"testing"
)

type record struct {
	Schema int    `json:"schema_version"`
	Name   string `json:"name"`
}

const one = `[
  {
    "schema_version": 1,
    "name": "a"
  }
]
`

const two = `[
  {
    "schema_version": 1,
    "name": "a"
  },
  {
    "schema_version": 1,
    "name": "b"
  }
]
`

func TestAppend(t *testing.T) {
	dir := t.TempDir()
	read := func(path string) string {
		t.Helper()
		buf, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		return string(buf)
	}

	missing := filepath.Join(dir, "missing.json")
	if err := Append(missing, record{1, "a"}); err != nil {
		t.Fatalf("missing file: %v", err)
	}
	if got := read(missing); got != one {
		t.Fatalf("missing file: wrote\n%s\nwant\n%s", got, one)
	}

	empty := filepath.Join(dir, "empty.json")
	if err := os.WriteFile(empty, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(empty, &record{1, "a"}); err != nil {
		t.Fatalf("empty file: %v", err)
	}
	if got := read(empty); got != one {
		t.Fatalf("empty file: wrote\n%s\nwant\n%s", got, one)
	}

	if err := Append(missing, record{1, "b"}); err != nil {
		t.Fatalf("existing array: %v", err)
	}
	if got := read(missing); got != two {
		t.Fatalf("existing array: wrote\n%s\nwant\n%s", got, two)
	}

	object := filepath.Join(dir, "object.json")
	const notArray = `{"schema_version": 1}` + "\n"
	if err := os.WriteFile(object, []byte(notArray), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := Append(object, record{1, "a"}); err == nil {
		t.Fatal("non-array file: Append succeeded")
	}
	if got := read(object); got != notArray {
		t.Fatalf("non-array file changed to\n%s", got)
	}
}
