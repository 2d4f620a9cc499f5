package main

import (
	"bytes"
	"io"
	"os"
	"path/filepath"
	"testing"
)

// The report of two small runs, byte for byte: the goldens were recorded
// from the command as it was before it ran on the Pipeline, when it traced
// and scored each strategy itself.
func TestGolden(t *testing.T) {
	for golden, args := range map[string][]string{
		"ranks64.golden":         {"-ranks", "64", "-ppn", "8", "-iters", "5"},
		"ranks64_heatmap.golden": {"-ranks", "64", "-ppn", "8", "-iters", "5", "-heatmap"},
	} {
		var out bytes.Buffer
		if err := run(args, &out); err != nil {
			t.Fatalf("%v: %v", args, err)
		}
		want, err := os.ReadFile(filepath.Join("testdata", golden))
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(out.Bytes(), want) {
			t.Errorf("%v: output drifted from %s\ngot:\n%s\nwant:\n%s", args, golden, out.Bytes(), want)
		}
	}
}

// A non-positive size is an error, not the paper default the scenario
// would read a 0 as.
func TestRejectsNonPositiveSizes(t *testing.T) {
	for _, name := range []string{"-iters", "-naive", "-size-guided", "-distributed"} {
		for _, v := range []string{"0", "-1"} {
			if err := run([]string{"-ranks", "64", "-ppn", "8", "-iters", "5", name, v}, io.Discard); err == nil {
				t.Errorf("%s %s accepted", name, v)
			}
		}
	}
	if err := run([]string{"-ranks", "63", "-ppn", "8"}, io.Discard); err == nil {
		t.Error("63 ranks at 8 per node accepted")
	}
}
