package scorep

import (
	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

// traceSource is one recording the facade analyses: the archive a session
// recorded into memory, or a trace file of an experiment directory (its
// trace.otf2, one shard of a fleet). Results, Experiment and every shard
// read theirs through it, so the rule "use the events once they are
// materialised, else scan the archive", the warning a cut file gives and
// the caching of the whole-recording analyses are each stated once. The
// zero value has recorded nothing and every result of it is nil. A lock
// of its owner's guards it: the Results' own, or, for each trace file of
// an experiment, one per file (lockedSource), so that a fleet's shards
// are read side by side.
type traceSource struct {
	mem  *otf2.Memory     // a session's own archive, or
	path string           // a trace file
	name string           // what the owner's errors and warnings call the file
	reg  *region.Registry // where load interns the regions of the events

	// trace is the recording as events, once load — or Session.End, for a
	// recording cut short — has materialised it.
	trace *Trace
	// warning is the cut the file was found to have ("" for none): every
	// read of a cut file words it the same way, so there is one to keep.
	warning string

	analysis    *TraceAnalysis // of the whole recording, made on first use
	bottlenecks *BottleneckAnalysis
}

func (s *traceSource) recorded() bool { return s.mem != nil || s.path != "" || s.trace != nil }

// scan feeds the part of the recording matching q to the consumers: from
// the events when they are in memory anyway, from the archive in bounded
// memory otherwise.
func (s *traceSource) scan(workers int, q TraceQuery, consumers ...trace.Consumer) (st TraceQueryStats, err error) {
	switch {
	case s.trace != nil:
		trace.Scan(s.trace, q, workers, consumers...)
	case s.mem != nil:
		st, err = otf2.Scan(s.mem.Reader(), q, workers, consumers...)
	case s.path != "":
		var warning string
		if st, warning, err = otf2.ScanFile(s.path, q, workers, consumers...); warning != "" {
			s.warning = warning
		}
	}
	return st, err
}

// load returns the recording as events, decoding it on first use.
func (s *traceSource) load(workers int) (_ *Trace, err error) {
	switch {
	case s.trace != nil:
	case s.mem != nil:
		s.trace, _, err = otf2.Load(s.mem.Reader(), s.reg, TraceQuery{}, workers)
	case s.path != "":
		var warning string
		if s.trace, _, warning, err = otf2.LoadFile(s.path, s.reg, TraceQuery{}, workers); warning != "" {
			s.warning = warning
		}
	}
	return s.trace, err
}

// analysisOf scans the part matching q into the trace analysis.
func (s *traceSource) analysisOf(workers int, q TraceQuery) (*TraceAnalysis, TraceQueryStats, error) {
	a := trace.NewAnalyzer()
	st, err := s.scan(workers, q, a)
	if err != nil || !s.recorded() {
		return nil, st, err
	}
	return a.Finish(), st, nil
}

// bottlenecksOf scans the part matching q into the bottleneck analysis.
func (s *traceSource) bottlenecksOf(workers int, q TraceQuery) (*BottleneckAnalysis, TraceQueryStats, error) {
	c := bottleneck.NewCollector()
	st, err := s.scan(workers, q, c)
	if err != nil || !s.recorded() {
		return nil, st, err
	}
	return c.Finish(), st, nil
}

// traceAnalysis returns the trace analysis of the whole recording.
func (s *traceSource) traceAnalysis(workers int) (_ *TraceAnalysis, err error) {
	if s.analysis == nil {
		s.analysis, _, err = s.analysisOf(workers, TraceQuery{})
	}
	return s.analysis, err
}

// bottleneckAnalysis returns the bottleneck analysis of the whole
// recording.
func (s *traceSource) bottleneckAnalysis(workers int) (_ *BottleneckAnalysis, err error) {
	if s.bottlenecks == nil {
		s.bottlenecks, _, err = s.bottlenecksOf(workers, TraceQuery{})
	}
	return s.bottlenecks, err
}
