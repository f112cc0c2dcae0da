package suite

import (
	"bytes"
	"os"
	"testing"
)

// FuzzDecodeSuite: strict decoding followed by validation must turn any
// input into a suite or an error, never a panic. Seeded with the paper
// suite and the two embedded example suites.
func FuzzDecodeSuite(f *testing.F) {
	for _, path := range []string{
		paperSuite,
		"../../examples/attack-sweep/suite.json",
		"../../examples/defense-eval/suite.json",
	} {
		data, err := os.ReadFile(path)
		if err != nil {
			f.Fatal(err)
		}
		f.Add(data)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		s, err := Decode(bytes.NewReader(data))
		if err != nil {
			return
		}
		_ = s.Validate()
	})
}
