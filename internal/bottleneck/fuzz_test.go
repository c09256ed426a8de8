package bottleneck

import (
	"bytes"
	"encoding/binary"
	"encoding/json"
	"math/rand"
	"os"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// The fuzzer's event streams are five-byte records: thread (two bits)
// and event type, region, task id, and a signed 16-bit step of the
// thread's clock. Nothing a recorder guarantees survives: clocks run
// backwards, enters and exits, begins and ends, creations and tasks
// need not match, ids repeat.

var fuzzTypes = []trace.EventType{
	trace.EvEnter, trace.EvExit, trace.EvTaskCreateBegin, trace.EvTaskCreateEnd,
	trace.EvTaskBegin, trace.EvTaskEnd, trace.EvTaskSwitch, trace.EvThreadBegin, trace.EvThreadEnd,
}

// fuzzRegions is the region table the records index: nil first, then
// one region of every type the analysis tells apart.
func fuzzRegions() []*region.Region {
	reg := region.NewRegistry()
	return []*region.Region{
		nil,
		reg.Register("f.parallel", "f.go", 1, region.Parallel),
		reg.Register("f.taskwait", "f.go", 2, region.Taskwait),
		reg.Register("f.barrier", "f.go", 3, region.Barrier),
		reg.Register("f.parallel", "f.go", 1, region.ImplicitBarrier),
		reg.Register("f.work", "f.go", 4, region.UserFunction),
		reg.Register("f.taskA", "f.go", 5, region.Task),
		reg.Register("f.taskB", "f.go", 6, region.Task),
	}
}

func decodeFuzzTrace(data []byte) *trace.Trace {
	regions := fuzzRegions()
	tr := &trace.Trace{Threads: map[int][]trace.Event{}}
	var now [4]int64
	for ; len(data) >= 5; data = data[5:] {
		tid := int(data[0] & 3)
		now[tid] += int64(int16(binary.LittleEndian.Uint16(data[3:])))
		tr.Threads[tid] = append(tr.Threads[tid], trace.Event{
			Time:   now[tid],
			Type:   fuzzTypes[int(data[0]>>2)%len(fuzzTypes)],
			Region: regions[int(data[1])%len(regions)],
			TaskID: uint64(data[2]),
		})
	}
	return tr
}

// encodeFuzzTrace writes a trace of at most four threads in the
// fuzzer's format, as a seed: regions go by their type, task ids and
// clock steps are cut to what a record holds.
func encodeFuzzTrace(tr *trace.Trace) []byte {
	regionIndex := map[region.Type]byte{
		region.Parallel: 1, region.Taskwait: 2, region.Barrier: 3, region.ImplicitBarrier: 4, region.UserFunction: 5, region.Task: 6,
	}
	var out []byte
	for tid, evs := range tr.Threads {
		now := int64(0)
		for _, ev := range evs {
			rec := [5]byte{byte(tid & 3), 0, byte(ev.TaskID)}
			for i, typ := range fuzzTypes {
				if typ == ev.Type {
					rec[0] |= byte(i) << 2
				}
			}
			if ev.Region != nil {
				rec[1] = regionIndex[ev.Region.Type]
				if ev.Region.Type == region.Task {
					rec[1] += byte(ev.Region.Line & 1) // two task regions
				}
			}
			step := max(-1<<15, min(ev.Time-now, 1<<15-1))
			binary.LittleEndian.PutUint16(rec[3:], uint16(int16(step)))
			now += step
			out = append(out, rec[:]...)
		}
	}
	return out
}

// FuzzAnalyze feeds the analysis arbitrary per-thread event streams: it
// must not panic, every thread's wait buckets must be non-negative and
// hold exactly its dispatch gaps and idle spans, the critical path must
// partition, one worker must find what three find, whole and windowed,
// and the join search must find what the merged list of every task end
// finds.
func FuzzAnalyze(f *testing.F) {
	f.Add(encodeFuzzTrace(lateSpawnTrace()))
	f.Add(encodeFuzzTrace(starvedThiefTrace()))
	f.Add(encodeFuzzTrace(skewedBarrierTrace()))
	f.Add(encodeFuzzTrace(producerConsumerTrace(40, 2, 0)))
	f.Add(encodeFuzzTrace(equalTimeEndsTrace()))
	f.Add(encodeFuzzTrace(strayEndTieTrace()))
	f.Add(encodeFuzzTrace(backwardsEndsTrace()))
	rng := rand.New(rand.NewSource(1))
	for _, cfg := range []genConfig{
		{Threads: 3, Roots: 4, Phases: 2, MaxDepth: 2, Grid: 1},
		{Threads: 2, Roots: 30, Phases: 1, Grid: 10, Producer: true},
		{Threads: 2, Roots: 2, Phases: 12, MaxDepth: 1, Grid: 1},
	} {
		tr := randomTrace(rng, cfg)
		f.Add(encodeFuzzTrace(tr))
		backwardsClocks(rng, tr)
		f.Add(encodeFuzzTrace(tr))
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		checkInvariants(t, decodeFuzzTrace(data), false)
	})
}

// TestJoinSeeds analyses FuzzAnalyze's three join seeds as the fuzzer
// reads them: equal-time ends on two threads, a stray end tied with a
// fragment end, and a thread whose ends do not ascend, which must take
// the sort fallback. Each Analysis must be the one written to
// testdata/join-seeds.golden by the analysis that still searched one
// merged list of every task end.
func TestJoinSeeds(t *testing.T) {
	golden, err := os.ReadFile("testdata/join-seeds.golden")
	if err != nil {
		t.Fatal(err)
	}
	want := bytes.Split(bytes.TrimSuffix(golden, []byte("\n")), []byte("\n"))
	names, traces := joinSeeds()
	if len(want) != len(traces) {
		t.Fatalf("%d golden analyses for %d seeds", len(want), len(traces))
	}
	for i, tr := range traces {
		t.Run(names[i], func(t *testing.T) {
			if bad := joinMismatches(tr, trace.Query{}, 1); len(bad) > 0 {
				t.Errorf("join search differs from the merged list: %v", bad)
			}
			before := sortFallbacks.Load()
			a := Analyze(tr)
			if sorted := sortFallbacks.Load() > before; sorted != (names[i] == "backwards-ends") {
				t.Errorf("sort fallback taken: %v", sorted)
			}
			if a.CriticalPath.JoinWait == 0 {
				t.Error("the walk took no join edge")
			}
			got, err := json.Marshal(a)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want[i]) {
				t.Errorf("Analysis\n got %s\nwant %s", got, want[i])
			}
		})
	}
}
