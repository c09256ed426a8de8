package cube_test

import (
	"bytes"
	"io"
	"os"
	"strings"
	"testing"

	"repro/internal/analyze"
	"repro/internal/cube"
	"repro/internal/region"
)

// brokenReports are report JSON a reader once crashed on: a null child,
// a null task tree, a stub with no region (it names itself by its
// region) and a task tree with no region (it is looked up by its
// region's name).
var brokenReports = []string{
	`{"main":{"kind":"region","children":[null]}}`,
	`{"main":{"kind":"region"},"tasks":[null]}`,
	`{"main":{"kind":"region","children":[{"kind":"stub"}]}}`,
	`{"main":{"kind":"region"},"tasks":[{"kind":"region"}]}`,
}

func TestReadJSONRejectsBrokenTrees(t *testing.T) {
	for _, in := range brokenReports {
		if rep, err := cube.ReadJSON(strings.NewReader(in), region.NewRegistry()); err == nil {
			t.Errorf("%s accepted: %+v", in, rep)
		}
	}
}

// FuzzReadReport feeds ReadJSON arbitrary bytes, seeded with a profile
// report written by scorep-bots (nqueens with per-depth parameters, so
// it holds region, stub and parameter nodes) and the broken reports:
// whatever it accepts must render as text and CSV, diff against itself,
// be diagnosed, and re-encode into JSON that it accepts again.
func FuzzReadReport(f *testing.F) {
	seed, err := os.ReadFile("testdata/profile.json")
	if err != nil {
		f.Fatal(err)
	}
	f.Add(seed)
	for _, in := range brokenReports {
		f.Add([]byte(in))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		rep, err := cube.ReadJSON(bytes.NewReader(data), region.NewRegistry())
		if err != nil {
			return
		}
		for _, opt := range []cube.RenderOptions{{}, {PerThread: true, MaxDepth: 3, MinSumNs: 1}} {
			if err := cube.Render(io.Discard, rep, opt); err != nil {
				t.Fatal(err)
			}
		}
		if err := cube.WriteCSV(io.Discard, rep); err != nil {
			t.Fatal(err)
		}
		if err := cube.RenderDiff(io.Discard, cube.Diff(rep, rep)); err != nil {
			t.Fatal(err)
		}
		analyze.Analyze(rep, analyze.Thresholds{})
		var buf bytes.Buffer
		if err := cube.WriteJSON(&buf, rep); err != nil {
			t.Fatal(err)
		}
		if _, err := cube.ReadJSON(&buf, region.NewRegistry()); err != nil {
			t.Fatalf("re-encoded report refused: %v", err)
		}
	})
}
