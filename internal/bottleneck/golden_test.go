package bottleneck_test

import (
	"bytes"
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"sync/atomic"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/bottleneck"
	"repro/internal/clock"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// updateGoldens re-records the traces under testdata/ whose case name
// it matches and rewrites the analyses beside them; the other cases are
// compared as always. The fib, nqueens, sparselu and health set was
// written by the analyzer of PR 12, before its data path was rewritten,
// the alignment set by that of PR 17, before the idle classification
// became a sweep; multi-threaded traces differ from run to run (the
// scheduler interleaves), so update only when the Analysis is meant to
// change, and review the diff.
var updateGoldens = flag.String("update-goldens", "", "re-record the testdata traces whose case name matches this `regexp` and rewrite their golden analyses")

type goldenCase struct {
	code    *bots.Spec
	size    bots.Size
	sched   scorep.SchedulerKind
	threads int
}

func (c goldenCase) base() string {
	return filepath.Join("testdata", fmt.Sprintf("%s-%s-t%d", c.code.Name, c.sched, c.threads))
}

func goldenCases() []goldenCase {
	// alignment is the single-producer shape: one thread creates every
	// task, so pending windows pile up under the other threads' idling.
	var cases []goldenCase
	for _, code := range []*bots.Spec{bots.FibSpec, bots.NQueensSpec, bots.SparseLUSpec, bots.HealthSpec, bots.AlignmentSpec} {
		size := bots.SizeTiny
		if code == bots.AlignmentSpec {
			size = bots.SizeSmall
		}
		for _, sched := range []scorep.SchedulerKind{scorep.SchedWorkStealing, scorep.SchedCentralQueue} {
			for _, threads := range []int{1, 2, 4} {
				cases = append(cases, goldenCase{code, size, sched, threads})
			}
		}
	}
	return cases
}

// goldenQueries is the whole trace plus five windowed / thread-subset
// queries placed relative to the trace's own extent.
func goldenQueries(tr *trace.Trace) []trace.Query {
	var tids []int
	lo, hi, first := int64(0), int64(0), true
	for tid, evs := range tr.Threads {
		tids = append(tids, tid)
		for _, ev := range evs {
			if first || ev.Time < lo {
				lo = ev.Time
			}
			if first || ev.Time > hi {
				hi = ev.Time
			}
			first = false
		}
	}
	sort.Ints(tids)
	at := func(pct int64) int64 { return lo + (hi-lo)*pct/100 }
	window := func(from, to int64, threads ...int) trace.Query {
		return trace.Query{MinTime: at(from), MaxTime: at(to), Windowed: true, Threads: threads}
	}
	head, tail := tids[0], tids[len(tids)-1]
	return []trace.Query{
		{},
		window(25, 50),
		window(0, 10),
		window(60, 100, head),
		{Threads: []int{tail}},
		window(40, 45, head, tail),
	}
}

// recordTrace runs one BOTS kernel under a clock that ticks once per
// read and returns its trace.
func recordTrace(t testing.TB, c goldenCase) *trace.Trace {
	t.Helper()
	var ticks atomic.Int64
	s := scorep.NewSession(scorep.WithTracing(), scorep.WithoutProfiling(), scorep.WithScheduler(c.sched),
		scorep.WithClock(clock.Func(func() int64 { return ticks.Add(10) })))
	kernel := c.code.Prepare(c.size, false)
	if got, want := kernel(s.Runtime(), c.threads), c.code.Expected(c.size); got != want {
		t.Fatalf("%s: kernel result %d, want %d", c.base(), got, want)
	}
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	return res.Trace()
}

// recordGolden records one BOTS kernel and writes its trace as a
// compressed archive.
func recordGolden(t *testing.T, c goldenCase) {
	if err := otf2.WriteFile(c.base()+".otf2", recordTrace(t, c), otf2.WithCompression(otf2.CompressionFlate)); err != nil {
		t.Fatal(err)
	}
}

func marshalAnalysis(t *testing.T, a *bottleneck.Analysis) []byte {
	t.Helper()
	b, err := json.Marshal(a)
	if err != nil {
		t.Fatal(err)
	}
	return b
}

// TestGoldenAnalyses pins the Analysis of real BOTS traces byte for
// byte: in memory and out of core, at one and four workers, whole and
// windowed. Out of core it reads the committed archive, compressed, and
// the trace written again raw: how an archive stores its chunks changes
// nothing about its analysis.
func TestGoldenAnalyses(t *testing.T) {
	var rerecord *regexp.Regexp
	if *updateGoldens != "" {
		rerecord = regexp.MustCompile(*updateGoldens)
	}
	for _, c := range goldenCases() {
		c := c
		t.Run(filepath.Base(c.base()), func(t *testing.T) {
			update := rerecord != nil && rerecord.MatchString(filepath.Base(c.base()))
			if update {
				recordGolden(t, c)
			}
			data, err := os.ReadFile(c.base() + ".otf2")
			if err != nil {
				t.Fatal(err)
			}
			tr, _, err := otf2.Load(bytes.NewReader(data), region.NewRegistry(), otf2.Query{}, 1)
			if err != nil {
				t.Fatal(err)
			}
			var raw bytes.Buffer
			if err := otf2.Write(&raw, tr); err != nil {
				t.Fatal(err)
			}
			archives := map[string][]byte{"committed": data, "raw": raw.Bytes()}
			queries := goldenQueries(tr)
			if update {
				var out bytes.Buffer
				for _, q := range queries {
					out.Write(marshalAnalysis(t, bottleneck.AnalyzeQuery(tr, q, 1)))
					out.WriteByte('\n')
				}
				if err := os.WriteFile(c.base()+".golden", out.Bytes(), 0o644); err != nil {
					t.Fatal(err)
				}
			}
			golden, err := os.ReadFile(c.base() + ".golden")
			if err != nil {
				t.Fatal(err)
			}
			want := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
			if len(want) != len(queries) {
				t.Fatalf("%d golden analyses for %d queries", len(want), len(queries))
			}
			for i, q := range queries {
				for _, workers := range []int{1, 4} {
					if got := marshalAnalysis(t, bottleneck.AnalyzeQuery(tr, q, workers)); !bytes.Equal(got, want[i]) {
						t.Errorf("query %d %+v workers=%d in memory:\n got %s\nwant %s", i, q, workers, got, want[i])
					}
					for name, archive := range archives {
						c := bottleneck.NewCollector()
						if _, err := otf2.Scan(bytes.NewReader(archive), q, workers, c); err != nil {
							t.Fatal(err)
						}
						if got := marshalAnalysis(t, c.Finish()); !bytes.Equal(got, want[i]) {
							t.Errorf("query %d %+v workers=%d out of core, %s archive:\n got %s\nwant %s", i, q, workers, name, got, want[i])
						}
					}
				}
			}
		})
	}
}
