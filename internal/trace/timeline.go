package trace

import (
	"fmt"
	"io"
	"sort"
	"strings"

	"repro/internal/stats"
)

// Timeline renders a recorded trace as per-thread lanes — the plain-text
// counterpart of the Vampir task timelines of Schmidl et al. [16] that
// the paper builds on ("visualized trace data of tasks with Vampir").
// Each lane shows, per time bucket, what the thread was predominantly
// doing: executing a task fragment, creating tasks, inside a scheduling
// point without a task (waiting/management), in other instrumented code,
// or outside the parallel region.

// laneState classifies what a thread does at an instant.
type laneState uint8

const (
	laneOutside laneState = iota // before ThreadBegin / after ThreadEnd
	laneCompute                  // implicit task user code
	laneCreate                   // inside a task-creation region
	laneSync                     // inside a scheduling point, no task
	laneTask                     // executing an explicit task fragment
)

var laneGlyphs = map[laneState]byte{
	laneOutside: ' ',
	laneCompute: '-',
	laneCreate:  'c',
	laneSync:    '.',
	laneTask:    '#',
}

// TimelineOptions controls rendering.
type TimelineOptions struct {
	// Width is the number of character buckets (default 100).
	Width int
	// ShowLegend appends the glyph legend (default true via Render).
	ShowLegend bool
}

// interval is a typed span on one thread's timeline.
type interval struct {
	start, end int64
	state      laneState
}

// threadIntervals reconstructs the state spans of one thread.
func threadIntervals(events []Event) []interval {
	var out []interval
	if len(events) == 0 {
		return out
	}
	cur := laneOutside
	curStart := events[0].Time
	var syncDepth, taskDepth, createDepth int

	stateNow := func() laneState {
		switch {
		case taskDepth > 0:
			return laneTask
		case createDepth > 0:
			return laneCreate
		case syncDepth > 0:
			return laneSync
		default:
			return laneCompute
		}
	}
	transition := func(t int64, st laneState) {
		if st == cur {
			return
		}
		if t > curStart {
			out = append(out, interval{curStart, t, cur})
		}
		cur = st
		curStart = t
	}

	for _, ev := range events {
		switch ev.Type {
		case EvThreadBegin:
			transition(ev.Time, laneCompute)
		case EvThreadEnd:
			transition(ev.Time, laneOutside)
		case EvEnter:
			if r := ev.Region; r != nil && r.Type.WaitPoint() {
				syncDepth++
				transition(ev.Time, stateNow())
			}
		case EvExit:
			if r := ev.Region; r != nil && r.Type.WaitPoint() {
				syncDepth--
				transition(ev.Time, stateNow())
			}
		case EvTaskCreateBegin:
			createDepth++
			transition(ev.Time, stateNow())
		case EvTaskCreateEnd:
			createDepth--
			transition(ev.Time, stateNow())
		case EvTaskBegin:
			taskDepth++
			transition(ev.Time, stateNow())
		case EvTaskEnd:
			if taskDepth > 0 {
				taskDepth--
			}
			transition(ev.Time, stateNow())
		case EvTaskSwitch:
			// Resuming an explicit task keeps laneTask; back to implicit
			// lowers to the surrounding state. taskDepth tracks nesting
			// via begin/end; a switch to implicit with depth 0 is a no-op.
			if ev.TaskID != 0 {
				if taskDepth == 0 {
					taskDepth = 1
				}
			}
			transition(ev.Time, stateNow())
		}
	}
	if last := events[len(events)-1].Time; last > curStart {
		out = append(out, interval{curStart, last, cur})
	}
	return out
}

// RenderTimeline writes the ASCII timeline of the trace.
func RenderTimeline(w io.Writer, tr *Trace, opt TimelineOptions) error {
	width := opt.Width
	if width <= 0 {
		width = 100
	}
	// Global time range.
	var tMin, tMax int64
	first := true
	for _, evs := range tr.Threads {
		if len(evs) == 0 {
			continue
		}
		if first || evs[0].Time < tMin {
			tMin = evs[0].Time
		}
		if first || evs[len(evs)-1].Time > tMax {
			tMax = evs[len(evs)-1].Time
		}
		first = false
	}
	if first || tMax <= tMin {
		_, err := fmt.Fprintln(w, "timeline: empty trace")
		return err
	}
	span := tMax - tMin
	bucket := func(t int64) int {
		b := int((t - tMin) * int64(width) / span)
		if b >= width {
			b = width - 1
		}
		return b
	}

	ids := tr.ThreadIDs()
	ew := &tlErrWriter{w: w}
	fmt.Fprintf(ew, "timeline: %s total, %d threads, %d buckets (%s/bucket)\n",
		stats.FormatNs(span), len(ids), width, stats.FormatNs(span/int64(width)))
	for _, tid := range ids {
		lane := make([]byte, width)
		weight := make([][5]int64, width) // per-bucket time per state
		for i := range lane {
			lane[i] = ' '
		}
		for _, iv := range threadIntervals(tr.Threads[tid]) {
			b0, b1 := bucket(iv.start), bucket(iv.end)
			for b := b0; b <= b1; b++ {
				// Overlap of the interval with bucket b.
				bs := tMin + int64(b)*span/int64(width)
				be := tMin + int64(b+1)*span/int64(width)
				lo, hi := iv.start, iv.end
				if bs > lo {
					lo = bs
				}
				if be < hi {
					hi = be
				}
				if hi > lo {
					weight[b][iv.state] += hi - lo
				}
			}
		}
		for b := 0; b < width; b++ {
			best := laneOutside
			var bestW int64
			for st := laneOutside; st <= laneTask; st++ {
				if weight[b][st] > bestW {
					bestW = weight[b][st]
					best = st
				}
			}
			lane[b] = laneGlyphs[best]
		}
		fmt.Fprintf(ew, "thread %2d |%s|\n", tid, string(lane))
	}
	if opt.ShowLegend {
		fmt.Fprintln(ew, "legend: '#' task execution  'c' task creation  '.' scheduling point (wait/mgmt)  '-' implicit task code  ' ' outside")
	}
	return ew.err
}

type tlErrWriter struct {
	w   io.Writer
	err error
}

func (e *tlErrWriter) Write(p []byte) (int, error) {
	if e.err != nil {
		return len(p), nil
	}
	n, err := e.w.Write(p)
	if err != nil {
		e.err = err
	}
	return n, nil
}

// Utilization summarizes the per-thread share of time per state over the
// whole trace — a numeric companion to the timeline.
type Utilization struct {
	ThreadID  int
	TaskPct   float64
	SyncPct   float64
	CreatePct float64
	OtherPct  float64
	TotalNs   int64
}

// ComputeUtilization derives per-thread utilization from the trace.
func ComputeUtilization(tr *Trace) []Utilization {
	var out []Utilization
	for _, tid := range tr.ThreadIDs() {
		ivs := threadIntervals(tr.Threads[tid])
		var per [5]int64
		var total int64
		for _, iv := range ivs {
			d := iv.end - iv.start
			per[iv.state] += d
			total += d
		}
		u := Utilization{ThreadID: tid, TotalNs: total}
		if total > 0 {
			u.TaskPct = 100 * float64(per[laneTask]) / float64(total)
			u.SyncPct = 100 * float64(per[laneSync]) / float64(total)
			u.CreatePct = 100 * float64(per[laneCreate]) / float64(total)
			u.OtherPct = 100 * float64(per[laneCompute]+per[laneOutside]) / float64(total)
		}
		out = append(out, u)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].ThreadID < out[j].ThreadID })
	return out
}

// FormatUtilization writes the utilization table.
func FormatUtilization(w io.Writer, us []Utilization) {
	fmt.Fprintf(w, "%-8s %8s %8s %8s %8s %10s\n", "thread", "task%", "sync%", "create%", "other%", "total")
	for _, u := range us {
		fmt.Fprintf(w, "%-8d %7.1f%% %7.1f%% %7.1f%% %7.1f%% %10s\n",
			u.ThreadID, u.TaskPct, u.SyncPct, u.CreatePct, u.OtherPct, stats.FormatNs(u.TotalNs))
	}
}

// Sparkline returns a compact single-lane rendering for embedding in
// logs: the state glyph sequence of one thread at the given width.
func Sparkline(tr *Trace, tid, width int) string {
	var sb strings.Builder
	sub := &Trace{Threads: map[int][]Event{tid: tr.Threads[tid]}}
	_ = RenderTimeline(&sb, sub, TimelineOptions{Width: width})
	lines := strings.Split(sb.String(), "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "thread") {
			if i := strings.IndexByte(l, '|'); i >= 0 {
				return strings.Trim(l[i:], "|")
			}
		}
	}
	return ""
}
