package main

import (
	"math/rand"
	"os"
	"reflect"
	"slices"
	"time"

	"repro/internal/otf2"
	"repro/internal/trace"
)

// queryWindows is the size of the window-query set: with 200 samples
// the 95th percentile still has ten samples beyond it.
const queryWindows = 200

// scansPerPass is how often a pass scans the archives: a scan takes
// 10-30 ms, and one sample per round left scan_events_per_s the
// shakiest of the metrics.
const scansPerPass = 3

// archiveInfo is what an archive's footer index says about it.
type archiveInfo struct {
	events       int64
	minT, maxT   int64
	threads      []int
	chunks       int
	indexReadDur time.Duration
}

func readArchiveInfo(path string) (archiveInfo, error) {
	f, err := os.Open(path)
	if err != nil {
		return archiveInfo{}, err
	}
	defer f.Close()
	t0 := time.Now()
	ix, err := otf2.ReadIndex(f)
	if err != nil {
		return archiveInfo{}, err
	}
	info := archiveInfo{events: int64(ix.NumEvents()), threads: ix.ThreadIDs(), chunks: ix.NumChunks(), indexReadDur: time.Since(t0)}
	first := true
	for _, th := range ix.Threads {
		for _, c := range th.Chunks {
			if first || c.MinTime < info.minT {
				info.minT = c.MinTime
			}
			if first || c.MaxTime > info.maxT {
				info.maxT = c.MaxTime
			}
			first = false
		}
	}
	return info, nil
}

// window is one query of a seeded set, relative to whatever archive it
// is asked of: the archive's place in the round's list, a slice of its
// time span, and a thread subset (nil: all). Being relative, the same
// set applies to every round's archives, whose timestamps differ.
type window struct {
	archive   int
	lo, width float64 // fractions of the archive's time span
	threads   []int
}

// makeWindows draws n windows over archives with the given thread
// lists, taking the archives in turn: 1-10 % of the span wide at a
// uniform position, every second one restricted to a random non-empty
// proper subset of the threads.
func makeWindows(rng *rand.Rand, threads [][]int, n int) []window {
	out := make([]window, n)
	for i := range out {
		w := window{archive: i % len(threads), width: 0.01 + 0.09*rng.Float64()}
		w.lo = rng.Float64() * (1 - w.width)
		if ids := threads[w.archive]; i%2 == 1 && len(ids) > 1 {
			for _, tid := range ids {
				if rng.Intn(2) == 0 {
					w.threads = append(w.threads, tid)
				}
			}
			if len(w.threads) == 0 || len(w.threads) == len(ids) {
				w.threads = []int{ids[rng.Intn(len(ids))]}
			}
		}
		out[i] = w
	}
	return out
}

// query resolves w against an archive's time span.
func (w window) query(in archiveInfo) trace.Query {
	span := float64(in.maxT - in.minT)
	lo := in.minT + int64(w.lo*span)
	return trace.Query{MinTime: lo, MaxTime: lo + int64(w.width*span), Windowed: true, Threads: w.threads}
}

// querySet is the analyst's side of a run: after every round, one pass
// over that round's archives — a full scan of each (scan_events_per_s)
// and the seeded set of indexed window queries (query_ms_*). A pass per
// round spreads the samples over the whole run, like every other
// timing; bunched at the end they would all sit in one host phase.
type querySet struct {
	windows    []window
	perWindow  [][]float64 // ms, one sample per pass
	stats      []otf2.QueryStats
	scans      []float64 // s
	scanEvents int64
	indexReads []float64 // us
}

// pass scans and queries the archives of the round just finished.
func (qs *querySet) pass(e *env, lr lastRound) {
	infos := make([]archiveInfo, len(lr.query))
	for i, p := range lr.query {
		var err error
		if infos[i], err = readArchiveInfo(p); !e.ops.noErr(err, "index of "+p) {
			return
		}
		qs.indexReads = append(qs.indexReads, float64(infos[i].indexReadDur)/float64(time.Microsecond))
	}
	if qs.windows == nil {
		threads := make([][]int, len(infos))
		for i, in := range infos {
			threads[i] = in.threads
		}
		qs.windows = makeWindows(e.rng, threads, queryWindows)
		qs.perWindow = make([][]float64, queryWindows)
		qs.stats = make([]otf2.QueryStats, queryWindows)
	}

	quiesce()
	qs.scanEvents = 0
	for i := 0; i < scansPerPass; i++ {
		t0 := time.Now()
		for _, p := range lr.scan {
			_, warn, err := otf2.AnalyzeFile(p, e.workers)
			e.ops.check(err == nil && warn == "", "scan %s: %v %s", p, err, warn)
		}
		qs.scans = append(qs.scans, time.Since(t0).Seconds())
	}
	for i, p := range lr.query { // the scanned archives are among the queried ones
		if slices.Contains(lr.scan, p) {
			qs.scanEvents += infos[i].events
		}
	}

	for i, w := range qs.windows {
		path, q := lr.query[w.archive], w.query(infos[w.archive])
		t0 := time.Now()
		_, st, _, err := otf2.AnalyzeFileQuery(path, q, e.workers)
		qs.perWindow[i] = append(qs.perWindow[i], ms(time.Since(t0)))
		qs.stats[i] = st
		e.ops.check(err == nil, "window query %v of %s: %v", q, path, err)
	}
}

// report derives the metrics. A window's latency is its median over
// the passes, so the percentiles describe the windows (how much each
// must read), not which pass a host hiccup fell into.
func (qs *querySet) report(m *metricSet) {
	lat := make([]float64, len(qs.windows))
	for i, samples := range qs.perWindow {
		lat[i] = median(samples)
	}
	s := summarize(lat)
	m.set("scan_events_per_s", "1/s", float64(qs.scanEvents)/median(qs.scans))
	m.set("query_ms_p50", "ms", s.Median)
	m.set("query_ms_p95", "ms", s.HighVal)
	m.sums["query_ms_p50"], m.sums["query_ms_p95"] = s, s

	read, total, indexed := 0, 0, 0
	for _, st := range qs.stats {
		read += st.ChunksRead
		total += st.ChunksTotal
		if st.Indexed {
			indexed++
		}
	}
	m.set("otf2.query_chunks_read_frac", "frac", float64(read)/float64(max(total, 1)))
	m.set("otf2.query_indexed_frac", "frac", float64(indexed)/float64(len(qs.stats)))
	m.setMedian("otf2.index_read_us", "us", qs.indexReads)
}

// verify checks, outside every timed section, a seeded tenth of the
// windows against the in-memory analysis of the same slice, where the
// last round's stream is in memory.
func (qs *querySet) verify(e *env, lr lastRound) {
	for i, w := range qs.windows {
		path := lr.query[w.archive]
		ref := lr.reference[path]
		if ref == nil || e.rng.Intn(10) != 0 {
			continue
		}
		info, err := readArchiveInfo(path)
		if !e.ops.noErr(err, "index of "+path) {
			continue
		}
		q := w.query(info)
		got, _, _, err := otf2.AnalyzeFileQuery(path, q, e.workers)
		want := trace.AnalyzeQuery(ref, q, 1)
		e.ops.check(err == nil && reflect.DeepEqual(got, want), "window %d (%v) of %s differs from the in-memory analysis (err %v)", i, q, path, err)
	}
}
