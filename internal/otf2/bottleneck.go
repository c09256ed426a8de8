package otf2

import (
	"errors"
	"fmt"
	"io"
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
	if src, ix := indexed(r); ix != nil {
		p, err := newPlan(src, ix, q, region.NewRegistry())
		if err != nil {
			return nil, p.st, err
		}
		// The plan knows how many events each thread's selected chunks
		// hold: the collector sizes its buffers by that.
		pc := bottleneck.NewParallelCollector(p.threadEvents())
		if err := p.analyze(workers, pc.ObserveBatch); err != nil {
			return nil, p.st, err
		}
		return pc.Finish(), p.st, nil
	}
	pc := bottleneck.NewParallelCollector(nil)
	err := runPipeline(r, region.NewRegistry(), workers, func(tid int, events []trace.Event) {
		pc.ObserveBatchQuery(tid, events, q)
	})
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, QueryStats{}, err
	}
	return pc.Finish(), QueryStats{}, err
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
