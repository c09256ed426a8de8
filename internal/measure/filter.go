package measure

import (
	"strings"
	"sync"
	"sync/atomic"

	"repro/internal/region"
)

// filter is Score-P's measurement filtering, as state of a Measurement:
// user regions that match it are excluded from profiling, which is the
// standard remedy when instrumentation of small, frequently-called
// functions dominates the overhead (the fib situation of the paper's
// Fig. 13 — every event that is never generated costs nothing).
//
// Only user-function Enter/Exit events are filtered; construct regions
// (parallel, task, barriers, taskwaits) are structural for the task
// profiling algorithm and always pass through.
//
// Verdicts are cached per interned region: the first event for a region
// pays the name/prefix matching, every later event costs one atomic
// load — the per-event hot path never scans patterns or hashes names.
type filter struct {
	excludePrefixes []string
	excludeNames    map[string]bool

	// verdicts caches excluded results indexed by region ID. Entries
	// remember the region pointer so a collision between IDs of
	// different registries falls back to recomputation instead of
	// returning a wrong verdict.
	verdicts atomic.Pointer[[]atomic.Pointer[verdict]]
	growMu   sync.Mutex
}

// verdict is one cached excluded result.
type verdict struct {
	r        *region.Region
	excluded bool
}

// NewFilter gives m the exclusion patterns and returns it: the filtered
// measurement is still the one listener. Patterns ending in '*' exclude
// by prefix, others by exact region name — mirroring the
// SCOREP_FILTERING_FILE syntax in spirit. Without patterns m stays
// unfiltered. Call it before the measured run.
func NewFilter(m *Measurement, patterns ...string) *Measurement {
	if len(patterns) == 0 {
		return m
	}
	f := &filter{excludeNames: make(map[string]bool)}
	for _, p := range patterns {
		if strings.HasSuffix(p, "*") {
			f.excludePrefixes = append(f.excludePrefixes, strings.TrimSuffix(p, "*"))
		} else {
			f.excludeNames[p] = true
		}
	}
	m.filter = f
	return m
}

// excluded reports whether events for r are dropped.
func (f *filter) excluded(r *region.Region) bool {
	if tbl := f.verdicts.Load(); tbl != nil {
		if id := int(r.ID); id >= 0 && id < len(*tbl) {
			if v := (*tbl)[id].Load(); v != nil && v.r == r {
				return v.excluded
			}
		}
	}
	ex := f.match(r)
	f.cache(r, ex)
	return ex
}

// match computes the verdict from the patterns (the slow path).
func (f *filter) match(r *region.Region) bool {
	if r.Type != region.UserFunction {
		return false
	}
	if f.excludeNames[r.Name] {
		return true
	}
	for _, p := range f.excludePrefixes {
		if strings.HasPrefix(r.Name, p) {
			return true
		}
	}
	return false
}

// cache stores a verdict, growing the table as needed. Growth copies
// element-wise through atomic loads/stores; readers always see either
// the old or the new table, both valid.
func (f *filter) cache(r *region.Region, excluded bool) {
	id := int(r.ID)
	if id < 0 {
		return
	}
	f.growMu.Lock()
	defer f.growMu.Unlock()
	tbl := f.verdicts.Load()
	if tbl == nil || id >= len(*tbl) {
		n := 64
		if tbl != nil && 2*len(*tbl) > n {
			n = 2 * len(*tbl)
		}
		if id >= n {
			n = id + 1
		}
		grown := make([]atomic.Pointer[verdict], n)
		if tbl != nil {
			for i := range *tbl {
				grown[i].Store((*tbl)[i].Load())
			}
		}
		tbl = &grown
		f.verdicts.Store(tbl)
	}
	(*tbl)[id].Store(&verdict{r: r, excluded: excluded})
}
