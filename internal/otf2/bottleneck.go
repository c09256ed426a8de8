package otf2

import (
	"errors"
	"fmt"
	"io"
	"math"
	"os"

	"repro/internal/bottleneck"
	"repro/internal/region"
	"repro/internal/trace"
)

// AnalyzeBottlenecks runs the bottleneck analysis (wait-state
// classification, critical path, what-if savings) over the sub-trace of
// an archive matching q, using up to workers decode goroutines (<= 0
// one per processor). It has the same access structure and guarantees
// as AnalyzeQuery: index-driven chunk selection when a footer index is
// readable, the sequential scan with event-level filtering otherwise,
// and the v1 salvage contract — a truncated archive yields the intact
// prefix's analysis alongside an error wrapping ErrTruncated.
//
// The result is reflect.DeepEqual-identical to fully decoding the
// archive, filtering with q, and running bottleneck.Analyze on that —
// at every worker count and on both access paths.
func AnalyzeBottlenecks(r io.Reader, q Query, workers int) (*bottleneck.Analysis, QueryStats, error) {
	workers = normWorkers(workers)
	if rs, ok := r.(io.ReadSeeker); ok {
		if ix, err := ReadIndex(rs); err == nil {
			// The index knows how many events each thread's selected
			// chunks hold: the collector sizes its buffers by that.
			events := make(map[int]int, len(ix.Threads))
			sel, _ := ix.selectChunks(q.MatchThread, q.Overlaps)
			for _, pc := range sel {
				events[pc.tid] += int(min(pc.ref.Events, math.MaxInt32))
			}
			pc := bottleneck.NewParallelCollector(events)
			consume := func(tid int, events []trace.Event) {
				if len(events) > 0 {
					pc.ObserveBatch(tid, events)
				}
			}
			st, err := runIndexed(rs, ix, q, region.NewRegistry(), workers, true, consume)
			if err != nil {
				return nil, st, err
			}
			return pc.Finish(), st, nil
		}
		// No readable index (v1 archive, crashed run, damaged trailer):
		// rewind and scan sequentially.
		if _, err := rs.Seek(0, io.SeekStart); err != nil {
			return nil, QueryStats{}, err
		}
	}
	var st QueryStats
	if workers == 1 {
		c := bottleneck.NewCollector()
		rd, err := NewReader(r, region.NewRegistry())
		if err != nil {
			if errors.Is(err, ErrTruncated) {
				return c.Finish(), st, err
			}
			return nil, st, err
		}
		for {
			tid, ev, err := rd.Next()
			if err == io.EOF {
				return c.Finish(), st, nil
			}
			if errors.Is(err, ErrTruncated) {
				return c.Finish(), st, err
			}
			if err != nil {
				return nil, st, err
			}
			c.ObserveQuery(tid, ev, q)
		}
	}
	pc := bottleneck.NewParallelCollector(nil)
	err := runPipeline(r, region.NewRegistry(), workers, true, func(tid int, events []trace.Event) {
		pc.ObserveBatchQuery(tid, events, q)
	})
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, st, err
	}
	return pc.Finish(), st, err
}

// AnalyzeFileBottlenecks runs the bottleneck analysis over the
// sub-trace of a trace file matching q, with the same lenient
// truncation policy, index-driven access and fallback as
// AnalyzeFileQuery. JSONL traces are loaded and filtered in memory.
func AnalyzeFileBottlenecks(path string, q Query, workers int) (*bottleneck.Analysis, QueryStats, string, error) {
	if !IsArchivePath(path) {
		tr, warn, err := ReadFileLenient(path, region.NewRegistry(), 1)
		if err != nil {
			return nil, QueryStats{}, "", err
		}
		return bottleneck.AnalyzeQuery(tr, q, workers), QueryStats{}, warn, nil
	}
	f, err := os.Open(path)
	if err != nil {
		return nil, QueryStats{}, "", err
	}
	defer f.Close()
	a, st, err := AnalyzeBottlenecks(f, q, workers)
	if errors.Is(err, ErrTruncated) {
		return a, st, fmt.Sprintf("%v; analyzing the intact prefix", err), nil
	}
	return a, st, "", err
}
