package scorep

// TraceArchive returns the archive a local tracing session's results
// hold, in pieces — the bytes themselves, so a test can compare or
// damage them.
func (r *Results) TraceArchive() [][]byte { return r.src.mem.Segments() }

// ForgetAnalyses drops the cached trace analyses, so a test can take
// both of their paths (archive scan, materialized trace) over one
// recording.
func (r *Results) ForgetAnalyses() {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.src.analysis, r.src.bottlenecks = nil, nil
}
