// Package benchrec writes the repository's run records: each BENCH_*.json
// file is a JSON array of schema-versioned records, one appended per run of
// a harness command (cmd/chaos, cmd/crash, cmd/fsfault, cmd/sim), and
// cmd/benchdiff reads them back.
package benchrec

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
)

// Append appends rec to the record array in the file at path, creating the
// file when it is missing and treating an empty one as an empty array. A
// file that holds anything but a JSON array is rejected and left untouched.
func Append(path string, rec any) error {
	var records []json.RawMessage
	if buf, err := os.ReadFile(path); err == nil {
		if len(buf) > 0 {
			if err := json.Unmarshal(buf, &records); err != nil {
				return fmt.Errorf("existing %s is not a valid record array: %w", path, err)
			}
		}
	} else if !errors.Is(err, os.ErrNotExist) {
		return err
	}
	buf, err := json.MarshalIndent(rec, "  ", "  ")
	if err != nil {
		return err
	}
	records = append(records, buf)
	out := []byte("[\n")
	for i, r := range records {
		out = append(out, "  "...)
		out = append(out, r...)
		if i < len(records)-1 {
			out = append(out, ',')
		}
		out = append(out, '\n')
	}
	out = append(out, "]\n"...)
	return os.WriteFile(path, out, 0o644)
}
