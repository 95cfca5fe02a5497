package experiments

import (
	"bytes"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

var updateRecord = flag.Bool("update", false, "rewrite testdata/all.txt from this build's output")

// recordPath holds what `experiments -all` prints at seed 1 and full size,
// with Table 10's wall-clock cells masked.
var recordPath = filepath.Join("testdata", "all.txt")

// wallClock marks a Table 10 cell that times this host, not the model.
const wallClock = "<wall>"

// allOutput is `experiments -all` (seed 1, default repetitions), one result
// per ID in IDs' order, each followed by a newline. Table 10's Statistics
// Collection, Model Fitting and Model Probing cells are masked before the
// table is laid out, so their widths do not move its columns either.
func allOutput() string {
	var b bytes.Buffer
	cfg := Config{Seed: 1}
	for _, id := range IDs() {
		res, err := Run(id, cfg)
		if err != nil {
			panic(err)
		}
		if t10, ok := res.(*Table10Result); ok {
			for i := range t10.Rows {
				r := &t10.Rows[i]
				if r.Component == "Model Size" {
					continue
				}
				for _, cell := range []*string{&r.DDPG, &r.BO, &r.GBO, &r.RelM} {
					if *cell != "-" {
						*cell = wallClock
					}
				}
			}
		}
		fmt.Fprintln(&b, res)
	}
	return b.String()
}

// TestAllMatchesRecord: every table and figure prints the bytes recorded in
// testdata/all.txt. A change meant to move a figure rewrites the file with
// `go test ./internal/experiments -run AllMatchesRecord -update`; any other
// difference is a figure that moved by accident.
func TestAllMatchesRecord(t *testing.T) {
	got := allOutput()
	if *updateRecord {
		if err := os.WriteFile(recordPath, []byte(got), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(recordPath)
	if err != nil {
		t.Fatal(err)
	}
	if got == string(want) {
		return
	}
	gl, wl := strings.Split(got, "\n"), strings.Split(string(want), "\n")
	for i := 0; i < max(len(gl), len(wl)); i++ {
		var g, w string
		if i < len(gl) {
			g = gl[i]
		}
		if i < len(wl) {
			w = wl[i]
		}
		if g != w {
			t.Fatalf("line %d of %s differs (of %d lines now, %d recorded):\n got %q\nwant %q", i+1, recordPath, len(gl), len(wl), g, w)
		}
	}
}
