package trace

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"repro/internal/clock"
	"repro/internal/omp"
	"repro/internal/region"
)

func TestJSONLRoundTrip(t *testing.T) {
	reg := region.NewRegistry()
	rec, sink := newCollectingRecorder(clock.NewSystem())
	rt := omp.NewRuntimeWithRegistry(rec, reg)
	par := reg.Register("par", "io.go", 1, region.Parallel)
	task := reg.Register("work", "io.go", 2, region.Task)
	tw := reg.Register("tw", "io.go", 3, region.Taskwait)
	rt.Parallel(2, par, func(th *omp.Thread) {
		if th.ID == 0 {
			for i := 0; i < 7; i++ {
				th.NewTask(task, func(*omp.Thread) {})
			}
			th.Taskwait(tw)
		}
	})
	rec.Finish()
	tr := sink.trace()

	var buf bytes.Buffer
	if err := WriteJSONL(&buf, tr); err != nil {
		t.Fatal(err)
	}
	if msg := dumpMismatch(tr, &buf); msg != "" {
		t.Fatal(msg)
	}
}

// dumpMismatch decodes a JSONL dump record by record and describes the
// first way it differs from tr's events in thread-then-time order, every
// field of the event and its region kept ("" when it does not).
func dumpMismatch(tr *Trace, dump io.Reader) string {
	dec := json.NewDecoder(dump)
	i := 0
	for _, tid := range tr.ThreadIDs() {
		for _, ev := range tr.Threads[tid] {
			want := jsonEvent{Thread: tid, Time: ev.Time, Type: ev.Type.String(), TaskID: ev.TaskID}
			if r := ev.Region; r != nil {
				want.Region, want.File, want.Line, want.RType = r.Name, r.File, r.Line, r.Type.String()
			}
			var got jsonEvent
			if err := dec.Decode(&got); err != nil {
				return fmt.Sprintf("record %d of %d: %v", i, tr.NumEvents(), err)
			}
			if got != want {
				return fmt.Sprintf("record %d: %+v, want %+v", i, got, want)
			}
			i++
		}
	}
	if dec.More() {
		return fmt.Sprintf("the dump holds more than the trace's %d events", i)
	}
	return ""
}

// randomJSONLTrace generates arbitrary traces: times, task IDs,
// event/region types and thread IDs range freely. Includes empty traces
// and region-less task events.
func randomJSONLTrace(r *rand.Rand) *Trace {
	reg := region.NewRegistry()
	pool := []*region.Region{
		nil,
		reg.Register("f", "file.go", 1, region.UserFunction),
		reg.Register("par", "file.go", 2, region.Parallel),
		reg.Register("task", "", 0, region.Task),
		reg.Register("tw", "x.go", 1<<20, region.Taskwait),
		reg.Register("b", "y.go", 3, region.ImplicitBarrier),
	}
	tr := &Trace{Threads: make(map[int][]Event)}
	for _, tid := range []int{0, 3, 1 << 16}[:r.Intn(4)] {
		n := 1 + r.Intn(40)
		evs := make([]Event, 0, n)
		now := r.Int63n(1 << 32)
		for i := 0; i < n; i++ {
			now += r.Int63n(1<<40) - 1<<39
			evs = append(evs, Event{
				Time:   now,
				Type:   EventType(r.Intn(int(EvThreadEnd) + 1)),
				Region: pool[r.Intn(len(pool))],
				TaskID: r.Uint64(),
			})
		}
		tr.Threads[tid] = evs
	}
	return tr
}

func TestQuickJSONLRoundTrip(t *testing.T) {
	prop := func(tr *Trace) bool {
		var buf bytes.Buffer
		if err := WriteJSONL(&buf, tr); err != nil {
			t.Logf("write: %v", err)
			return false
		}
		if msg := dumpMismatch(tr, &buf); msg != "" {
			t.Log(msg)
			return false
		}
		return true
	}
	cfg := &quick.Config{
		MaxCount: 200,
		Values: func(args []reflect.Value, r *rand.Rand) {
			args[0] = reflect.ValueOf(randomJSONLTrace(r))
		},
	}
	if err := quick.Check(prop, cfg); err != nil {
		t.Fatal(err)
	}
}
