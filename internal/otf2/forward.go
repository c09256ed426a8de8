package otf2

import (
	"errors"
	"io"

	"repro/internal/bottleneck"
	"repro/internal/region"
	"repro/internal/trace"
)

// The functions of this file are Scan, Load, ScanFile and LoadFile under
// the names they had before those existed. They are kept only because
// benchmark/ calls them, and that directory may not change with the code
// it measures; ROADMAP item 3 re-points it and deletes this file.

// Analyze is Scan of the whole archive into a trace.Analyzer on one
// worker; a cut archive yields the prefix's analysis and ErrTruncated.
func Analyze(r io.Reader) (*trace.Analysis, error) {
	a := trace.NewAnalyzer()
	_, err := Scan(r, Query{}, 1, a)
	if err != nil && !errors.Is(err, ErrTruncated) {
		return nil, err
	}
	return a.Finish(), err
}

// ReadAllParallel is Load of the whole archive.
func ReadAllParallel(r io.Reader, reg *region.Registry, workers int) (*trace.Trace, error) {
	tr, _, err := Load(r, reg, Query{}, workers)
	return tr, err
}

// ReadFile is LoadFile of the whole file without the salvage: a cut
// archive's prefix comes with an error wrapping ErrTruncated.
func ReadFile(path string, reg *region.Registry, workers int) (*trace.Trace, error) {
	tr, _, err := loadFile(path, reg, Query{}, workers)
	return tr, err
}

// AnalyzeFile is AnalyzeFileQuery of the whole file.
func AnalyzeFile(path string, workers int) (*trace.Analysis, string, error) {
	a, _, warning, err := AnalyzeFileQuery(path, Query{}, workers)
	return a, warning, err
}

// AnalyzeFileQuery is ScanFile into a trace.Analyzer.
func AnalyzeFileQuery(path string, q Query, workers int) (*trace.Analysis, QueryStats, string, error) {
	a := trace.NewAnalyzer()
	st, warning, err := ScanFile(path, q, workers, a)
	if err != nil {
		return nil, st, "", err
	}
	return a.Finish(), st, warning, nil
}

// AnalyzeFileBottlenecks is ScanFile into a bottleneck.Collector.
func AnalyzeFileBottlenecks(path string, q Query, workers int) (*bottleneck.Analysis, QueryStats, string, error) {
	c := bottleneck.NewCollector()
	st, warning, err := ScanFile(path, q, workers, c)
	if err != nil {
		return nil, st, "", err
	}
	return c.Finish(), st, warning, nil
}
