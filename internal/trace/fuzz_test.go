package trace

import (
	"encoding/binary"
	"math"
	"reflect"
	"sync"
	"testing"

	"repro/internal/region"
)

// The fuzzer's event streams are five-byte records, as FuzzAnalyze's in
// internal/bottleneck: thread (three bits) and event type, region, task
// id, and a signed 16-bit step of the thread's clock. Nothing a recorder
// guarantees survives: clocks run backwards, enters and exits, begins
// and ends, creations and tasks need not match, ids repeat, and thread
// ids reach the ends of int.

// fuzzThreads are the thread ids a record's three bits pick.
var fuzzThreads = [8]int{0, 1, 2, -1, math.MaxInt - 1, math.MaxInt, math.MinInt, math.MinInt + 1}

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
		reg.Register("f.task", "f.go", 5, region.Task),
	}
}

func decodeFuzzTrace(data []byte) *Trace {
	regions := fuzzRegions()
	tr := &Trace{Threads: map[int][]Event{}}
	var now [len(fuzzThreads)]int64
	for ; len(data) >= 5; data = data[5:] {
		k := data[0] & 7
		tid := fuzzThreads[k]
		now[k] += int64(int16(binary.LittleEndian.Uint16(data[3:])))
		tr.Threads[tid] = append(tr.Threads[tid], Event{
			Time:   now[k],
			Type:   EventType(int(data[0]>>3) % int(EvThreadEnd+1)),
			Region: regions[int(data[1])%len(regions)],
			TaskID: uint64(data[2]),
		})
	}
	return tr
}

// fuzzRecord is one record of the fuzzer's format.
func fuzzRecord(thread byte, typ EventType, regionIndex, task byte, step int16) []byte {
	rec := []byte{thread | byte(typ)<<3, regionIndex, task, 0, 0}
	binary.LittleEndian.PutUint16(rec[3:], uint16(step))
	return rec
}

// FuzzAnalyzer feeds the trace analysis arbitrary per-thread event
// streams: it must not panic, and its Analysis must be the same at one
// worker and at four, whole and windowed, and fed in runs of any length
// from a goroutine per thread.
func FuzzAnalyzer(f *testing.F) {
	var tasks, hostile []byte
	for th := byte(0); th < 8; th++ {
		for i := byte(1); i <= 3; i++ {
			tasks = append(tasks, fuzzRecord(th, EvEnter, 2, 0, 5)...)
			tasks = append(tasks, fuzzRecord(th, EvTaskCreateBegin, 6, 0, 3)...)
			tasks = append(tasks, fuzzRecord(th, EvTaskCreateEnd, 6, i, 4)...)
			tasks = append(tasks, fuzzRecord(th, EvTaskBegin, 6, i, 2)...)
			tasks = append(tasks, fuzzRecord(th, EvTaskEnd, 6, i, 9)...)
			tasks = append(tasks, fuzzRecord(th, EvExit, 2, 0, 1)...)
		}
	}
	f.Add(tasks)
	hostile = append(hostile, fuzzRecord(5, EvExit, 3, 0, 10)...)          // an exit with no enter
	hostile = append(hostile, fuzzRecord(5, EvEnter, 3, 0, -20)...)        // backwards
	hostile = append(hostile, fuzzRecord(5, EvTaskBegin, 6, 7, 3)...)      // a task never created
	hostile = append(hostile, fuzzRecord(5, EvTaskBegin, 6, 7, -1<<15)...) // the same id again, far back
	hostile = append(hostile, fuzzRecord(6, EvTaskSwitch, 0, 0, 1<<15-1)...)
	hostile = append(hostile, fuzzRecord(6, EvTaskEnd, 6, 7, 0)...)
	hostile = append(hostile, fuzzRecord(4, EvTaskCreateEnd, 6, 9, -3)...)
	hostile = append(hostile, fuzzRecord(5, EvExit, 3, 0, 4)...)
	hostile = append(hostile, fuzzRecord(5, EvExit, 3, 0, 4)...)
	f.Add(hostile)
	f.Add(append(tasks, hostile...))
	f.Add([]byte{})
	f.Fuzz(func(t *testing.T, data []byte) {
		tr := decodeFuzzTrace(data)
		want := AnalyzeQuery(tr, Query{}, 1)
		if got := AnalyzeQuery(tr, Query{}, 4); !reflect.DeepEqual(got, want) {
			t.Fatalf("four workers:\n got %+v\nwant %+v", got, want)
		}
		q := Query{Windowed: true, MinTime: -100, MaxTime: 1000}
		if got, want := AnalyzeQuery(tr, q, 4), AnalyzeQuery(tr, q, 1); !reflect.DeepEqual(got, want) {
			t.Fatalf("windowed, four workers:\n got %+v\nwant %+v", got, want)
		}
		run := 1 + len(data)%7
		a := NewAnalyzer()
		var wg sync.WaitGroup
		for tid, events := range tr.Threads {
			wg.Add(1)
			go func() {
				defer wg.Done()
				for i := 0; i < len(events); i += run {
					a.Consume(tid, events[i:min(i+run, len(events))])
				}
			}()
		}
		wg.Wait()
		if got := a.Finish(); !reflect.DeepEqual(got, want) {
			t.Fatalf("runs of %d events:\n got %+v\nwant %+v", run, got, want)
		}
	})
}
