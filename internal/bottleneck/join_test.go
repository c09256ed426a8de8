package bottleneck_test

import (
	"path/filepath"
	"strings"
	"testing"

	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// TestJoinSearchOnRecordings holds the critical-path walk's join search
// to the merged list of every task end it replaced, at every resumed
// fragment and at random queries, over real recordings: the 30 BOTS
// traces of testdata and the four archive fixtures of internal/otf2 (raw,
// compressed, a flight dump and a cut archive), each whole and under the
// golden windows and thread subsets.
func TestJoinSearchOnRecordings(t *testing.T) {
	var paths []string
	for _, c := range goldenCases() {
		paths = append(paths, c.base()+".otf2")
	}
	for _, f := range []string{"v4", "v4-flate", "v4-flight", "v4-cut"} {
		paths = append(paths, filepath.Join("..", "otf2", "testdata", f+".otf2"))
	}
	for _, path := range paths {
		t.Run(strings.TrimSuffix(filepath.Base(path), ".otf2"), func(t *testing.T) {
			tr, _, _, err := otf2.LoadFile(path, region.NewRegistry(), otf2.Query{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			for i, q := range goldenQueries(tr) {
				c := bottleneck.NewCollector()
				trace.Scan(tr, q, 1, c)
				if bad := bottleneck.JoinMismatches(c, int64(i)); len(bad) > 0 {
					t.Errorf("query %d %+v: %d joins differ, first %s", i, q, len(bad), bad[0])
				}
			}
		})
	}
}
