package main

import (
	"encoding/json"
	"fmt"
	"io"
	"sort"
	"strings"
)

// metricDef declares one metric of the benchmark's contract: its name,
// unit, which direction is better, and — for end-to-end metrics — the
// share of the parent's median by which it may worsen before a change
// counts as a regression. BENCHMARK.json lists exactly these (a test
// keeps the two in step).
type metricDef struct {
	Name   string
	Unit   string
	Better string // "lower" or "higher"
	Bound  float64
}

// endToEnd are the metrics a user of the pipeline sees. Every workload
// reports every one; README.md says what each means on each workload.
// failed_frac, the thirteenth, is attempted/failed in the result line:
// it is 0 at a healthy commit and a relative bound on 0 means nothing.
//
// Every wall-clock metric carries the widest bound the contract allows:
// this host's speed drifts by 10-30 % over tens of seconds, so a run's
// median moves that much whatever the run measures (README.md,
// "Steadiness on this host"). heap_live_mb is no time, but
// archive-query's loaded trace differs by up to +-15 % between seeds
// (slice capacities round differently), and the driver's ten runs use
// ten seeds. Only bytes per event can be held tight.
var endToEnd = []metricDef{
	{"setup_s", "s", "lower", 0.25},
	{"overhead_ratio", "ratio", "lower", 0.25},
	{"inst_run_s", "s", "lower", 0.25},
	{"pipeline_s", "s", "lower", 0.25},
	{"time_to_report_s", "s", "lower", 0.25},
	{"archive_bytes_per_event", "B/event", "lower", 0.03},
	{"heap_live_mb", "MB", "lower", 0.25},
	{"ingest_events_per_s", "1/s", "higher", 0.25},
	{"dump_ms_p50", "ms", "lower", 0.25},
	{"scan_events_per_s", "1/s", "higher", 0.25},
	{"query_ms_p50", "ms", "lower", 0.25},
	{"query_ms_p95", "ms", "lower", 0.25},
}

// value is one reported measurement.
type value struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// metricSet collects a run's measurements by name, with the summary
// (quartiles, sample count, tail percentile) of those that are medians
// of repeated samples.
type metricSet struct {
	vals  map[string]value
	sums  map[string]summary
	notes map[string]string
}

func newMetricSet() *metricSet {
	return &metricSet{vals: map[string]value{}, sums: map[string]summary{}, notes: map[string]string{}}
}

func (m *metricSet) set(name, unit string, v float64) { m.vals[name] = value{v, unit} }

// setMedian reports the median of samples under name and keeps the
// summary for the printed table.
func (m *metricSet) setMedian(name, unit string, samples []float64) {
	s := summarize(samples)
	m.vals[name] = value{s.Median, unit}
	m.sums[name] = s
}

// note attaches a label printed beside the metric (e.g. "unresolved").
func (m *metricSet) note(name, text string) { m.notes[name] = text }

func (m *metricSet) get(name string) float64 { return m.vals[name].Value }

// names returns the metric names, the given contract order first, then
// the rest alphabetically.
func (m *metricSet) names(first []metricDef) []string {
	seen := map[string]bool{}
	var out []string
	for _, d := range first {
		if _, ok := m.vals[d.Name]; ok {
			out = append(out, d.Name)
			seen[d.Name] = true
		}
	}
	var rest []string
	for n := range m.vals {
		if !seen[n] {
			rest = append(rest, n)
		}
	}
	sort.Strings(rest)
	return append(out, rest...)
}

// print writes every metric by name with its unit; medians carry their
// quartiles, sample count and highest resolvable percentile.
func (m *metricSet) print(w io.Writer, first []metricDef) {
	for _, n := range m.names(first) {
		v := m.vals[n]
		line := fmt.Sprintf("  %-36s %14.6g %-8s", n, v.Value, v.Unit)
		if s, ok := m.sums[n]; ok {
			line += fmt.Sprintf(" q1=%.6g q3=%.6g n=%d", s.Q1, s.Q3, s.N)
			if s.HighPct > 0 {
				line += fmt.Sprintf(" p%g=%.6g", s.HighPct, s.HighVal)
			}
		}
		if t := m.notes[n]; t != "" {
			line += " [" + t + "]"
		}
		fmt.Fprintln(w, strings.TrimRight(line, " "))
	}
}

// contractDefs are the metrics the contract wants from a run: the
// end-to-end ones untraced, the per-layer ones traced.
func contractDefs(traced bool) []metricDef {
	if traced {
		return perLayer
	}
	return endToEnd
}

// resultLine is the contract's last line of standard output.
type resultLine struct {
	Correct   bool             `json:"correct"`
	Attempted int              `json:"attempted"`
	Failed    int              `json:"failed"`
	Metrics   map[string]value `json:"metrics"`
}

// contractLine selects exactly the metrics in defs. A metric the run
// did not produce is a harness bug, reported as an error.
func contractLine(m *metricSet, defs []metricDef, attempted, failed int) (string, error) {
	out := resultLine{Correct: failed == 0, Attempted: attempted, Failed: failed, Metrics: map[string]value{}}
	for _, d := range defs {
		v, ok := m.vals[d.Name]
		if !ok {
			return "", fmt.Errorf("metric %s was not measured", d.Name)
		}
		out.Metrics[d.Name] = value{v.Value, d.Unit}
	}
	b, err := json.Marshal(out)
	return string(b), err
}

// perLayer are the single-layer metrics every workload's traced run
// reports: stage spans of the open-analyse-render path all five share,
// the hot-path probes (fixed work, the same on every workload), the
// replay probes over the run's own event stream, and the runtime's
// counters. Workload-specific ones (scorep.save_ms, sink.live_*,
// cube.*, budget.*, ...) are printed and written to -out but are not in
// the contract, which wants every listed metric from every workload.
var perLayer = []metricDef{
	{Name: "scorep.open_ms", Unit: "ms", Better: "lower"},
	{Name: "scorep.trace_analysis_ms", Unit: "ms", Better: "lower"},
	{Name: "scorep.bottlenecks_ms", Unit: "ms", Better: "lower"},
	{Name: "scorep.report_render_ms", Unit: "ms", Better: "lower"},
	{Name: "scorep.stage_sum_frac", Unit: "frac", Better: "higher"},

	{Name: "clock.now_ns", Unit: "ns", Better: "lower"},
	{Name: "omp.nop_enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "omp.task_spawn_ns", Unit: "ns", Better: "lower"},
	{Name: "core.enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "core.task_cycle_ns", Unit: "ns", Better: "lower"},
	{Name: "measure.enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "measure.filter_ns", Unit: "ns", Better: "lower"},
	{Name: "measure.finish_ms", Unit: "ms", Better: "lower"},
	{Name: "trace.record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.stream_record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.flight_record_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.tee_enter_exit_ns", Unit: "ns", Better: "lower"},
	{Name: "trace.finish_ms", Unit: "ms", Better: "lower"},

	{Name: "omp.tasks", Unit: "count", Better: "lower"},
	{Name: "omp.steals", Unit: "count", Better: "lower"},
	{Name: "omp.steal_success_frac", Unit: "frac", Better: "higher"},
	{Name: "omp.parks", Unit: "count", Better: "lower"},
	{Name: "core.nodes_allocated", Unit: "count", Better: "lower"},
	{Name: "core.instances_allocated", Unit: "count", Better: "lower"},
	{Name: "trace.events", Unit: "count", Better: "lower"},

	{Name: "trace.analyze_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "trace.analyze_par_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "bottleneck.analyze_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "bottleneck.analyze_par_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "bottleneck.allocs_per_event", Unit: "1/event", Better: "lower"},
	{Name: "bottleneck.vs_trace_ratio", Unit: "ratio", Better: "lower"},
	{Name: "bottleneck.merge_fleet_ms", Unit: "ms", Better: "lower"},
	{Name: "bottleneck.query_ms_p50", Unit: "ms", Better: "lower"},

	{Name: "otf2.encode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "otf2.encode_flate_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "otf2.bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "otf2.flate_bytes_per_event", Unit: "B/event", Better: "lower"},
	{Name: "otf2.write_file_ms", Unit: "ms", Better: "lower"},
	{Name: "otf2.decode_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "otf2.decode_par_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "otf2.analyze_file_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "otf2.index_read_us", Unit: "us", Better: "lower"},
	{Name: "otf2.stat_file_ms", Unit: "ms", Better: "lower"},
	{Name: "otf2.query_chunks_read_frac", Unit: "frac", Better: "lower"},
	{Name: "otf2.query_indexed_frac", Unit: "frac", Better: "higher"},

	{Name: "sink.client_write_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "sink.socket_file_ratio", Unit: "ratio", Better: "lower"},
	{Name: "sink.close_ms", Unit: "ms", Better: "lower"},
	{Name: "sink.frames", Unit: "count", Better: "lower"},
	{Name: "sink.bytes", Unit: "B", Better: "lower"},
	{Name: "sink.dropped_events", Unit: "count", Better: "lower"},
	{Name: "sink.resumes", Unit: "count", Better: "lower"},
	{Name: "sink.gap_bytes", Unit: "B", Better: "lower"},
}
