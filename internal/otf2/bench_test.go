package otf2

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"io"
	"math/rand"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// benchTrace builds a realistic synthetic recording: nTasks task
// lifecycles per thread inside a parallel+taskwait envelope, the event
// mix a BOTS run produces.
func benchTrace(threads, nTasks int) *trace.Trace {
	reg := region.NewRegistry()
	par := reg.Register("bench.parallel", "bench.go", 1, region.Parallel)
	task := reg.Register("bench.task", "bench.go", 2, region.Task)
	create := reg.Register("bench.create", "bench.go", 2, region.TaskCreate)
	tw := reg.Register("bench.taskwait", "bench.go", 3, region.Taskwait)
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	var id uint64
	for t := 0; t < threads; t++ {
		now := int64(1000 * t)
		tick := func() int64 { now += 740; return now }
		evs := []trace.Event{
			{Time: tick(), Type: trace.EvThreadBegin},
			{Time: tick(), Type: trace.EvEnter, Region: par},
			{Time: tick(), Type: trace.EvEnter, Region: tw},
		}
		for i := 0; i < nTasks; i++ {
			id++
			evs = append(evs,
				trace.Event{Time: tick(), Type: trace.EvTaskCreateBegin, Region: create},
				trace.Event{Time: tick(), Type: trace.EvTaskCreateEnd, Region: task, TaskID: id},
				trace.Event{Time: tick(), Type: trace.EvTaskBegin, Region: task, TaskID: id},
				trace.Event{Time: tick(), Type: trace.EvTaskEnd, Region: task, TaskID: id},
			)
		}
		evs = append(evs,
			trace.Event{Time: tick(), Type: trace.EvExit, Region: tw},
			trace.Event{Time: tick(), Type: trace.EvExit, Region: par},
			trace.Event{Time: tick(), Type: trace.EvThreadEnd},
		)
		tr.Threads[t] = evs
	}
	return tr
}

// BenchmarkEncode measures the binary codec's write path in isolation.
func BenchmarkEncode(b *testing.B) {
	tr := benchTrace(4, 2000)
	events := tr.NumEvents()
	var size int64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		var n countingWriter
		if err := Write(&n, tr); err != nil {
			b.Fatal(err)
		}
		size = int64(n)
	}
	b.ReportMetric(float64(size)/float64(events), "bytes/event")
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// decodeShape is a chunk of event records with the field widths of one
// workload: its events, the regions they refer to, and how long a
// thread's clock steps between two of them.
type decodeShape struct {
	name    string
	regions int
	step    func(rng *rand.Rand) int64
	noTask  float64 // the share of events without a task
}

// decodeShapes are fib-fine's records (two-byte time deltas, four
// regions, a third of the events without a task) and archive-query's
// (one- to three-byte deltas, 13 regions, 58 % without a task).
var decodeShapes = []decodeShape{
	{"fib", 4, func(rng *rand.Rand) int64 { return 64 + rng.Int63n(4000) }, 0.33},
	{"archive-query", 13, func(rng *rand.Rand) int64 {
		switch rng.Intn(3) {
		case 0:
			return rng.Int63n(60)
		case 1:
			return 64 + rng.Int63n(8000)
		}
		return 8192 + rng.Int63n(1<<20)
	}, 0.58},
}

// chunkOf encodes the shape's events as one event payload of about
// DefaultChunkBytes, thread/count head included, and returns it with the
// region table it decodes against.
func (s decodeShape) chunkOf(tb testing.TB) (payload []byte, regions []*region.Region, events int) {
	rng := rand.New(rand.NewSource(1))
	reg := region.NewRegistry()
	var defs defTable
	defs.init(DefaultChunkBytes, func(err error) { tb.Fatal(err) })
	for i := 0; i < s.regions; i++ {
		r := reg.Register(fmt.Sprintf("%s.%d", s.name, i), "bench.go", i, region.Type(i%int(maxRegionType+1)))
		defs.region(r)
		regions = append(regions, r)
	}
	var evs []trace.Event
	now, task := int64(0), uint64(0)
	for i := 0; i < 8000; i++ {
		now += s.step(rng)
		ev := trace.Event{Time: now, Type: trace.EventType(rng.Intn(int(maxEventType) + 1)), Region: regions[rng.Intn(len(regions))]}
		if rng.Float64() >= s.noTask {
			if rng.Intn(2) == 0 {
				task++
			}
			ev.TaskID = task - uint64(rng.Intn(4))%max(task, 1)
		}
		evs = append(evs, ev)
	}
	var enc chunkEncoder
	enc.begin(nil)
	events = enc.encode(&defs, evs, DefaultChunkBytes)
	head := binary.AppendUvarint(binary.AppendVarint(nil, 0), uint64(events))
	return append(head, enc.buf...), regions, events
}

// BenchmarkDecode measures the record loop alone: one chunk of each
// decodeShape decoded in place by decodePacked, with no I/O, planning or
// allocation around it. The sub-benchmarks keep the format version in
// their names, v4, so their numbers stay one series across changes.
func BenchmarkDecode(b *testing.B) {
	for _, s := range decodeShapes {
		payload, regions, events := s.chunkOf(b)
		b.Run(s.name+"/v4", func(b *testing.B) {
			dst := make([]trace.Event, events)
			for i := 0; i < b.N; i++ {
				c := cursor{payload: payload}
				if _, err := c.varint("thread"); err != nil {
					b.Fatal(err)
				}
				if _, err := c.uvarint("count"); err != nil {
					b.Fatal(err)
				}
				if _, err := decodePacked(&c, regions, 0, dst); err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(payload))/float64(events), "bytes/event")
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
		})
	}
}

// BenchmarkStreamAnalyze measures the out-of-core analysis over an
// in-memory archive image.
func BenchmarkStreamAnalyze(b *testing.B) {
	tr := benchTrace(4, 2000)
	events := tr.NumEvents()
	var buf bytes.Buffer
	if err := Write(&buf, tr); err != nil {
		b.Fatal(err)
	}
	data := buf.Bytes()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := analyzeParallel(bytes.NewReader(data), 1); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
}

// BenchmarkWriteThroughput compares end-to-end trace serialization,
// binary archive vs the JSONL stand-in, on the same recording. The
// bytes/event metrics quantify the format's compression (acceptance:
// binary ≤ 1/8 of JSONL).
func BenchmarkWriteThroughput(b *testing.B) {
	tr := benchTrace(4, 2000)
	events := tr.NumEvents()
	b.Run("binary", func(b *testing.B) {
		var size int64
		for i := 0; i < b.N; i++ {
			var n countingWriter
			if err := Write(&n, tr); err != nil {
				b.Fatal(err)
			}
			size = int64(n)
		}
		b.SetBytes(size)
		b.ReportMetric(float64(size)/float64(events), "bytes/event")
	})
	b.Run("jsonl", func(b *testing.B) {
		var size int64
		for i := 0; i < b.N; i++ {
			var n countingWriter
			if err := trace.WriteJSONL(&n, tr); err != nil {
				b.Fatal(err)
			}
			size = int64(n)
		}
		b.SetBytes(size)
		b.ReportMetric(float64(size)/float64(events), "bytes/event")
	})
}

// countingWriter discards bytes, counting them.
type countingWriter int64

func (c *countingWriter) Write(p []byte) (int, error) {
	*c += countingWriter(len(p))
	return len(p), nil
}

var _ io.Writer = (*countingWriter)(nil)

// BenchmarkLoad measures a whole-archive load by plan (raw and flate, one
// and two workers) against the sequential reference reader.
func BenchmarkLoad(b *testing.B) {
	tr := benchTrace(4, 50_000)
	events := tr.NumEvents()
	for _, comp := range []Compression{CompressionNone, CompressionFlate} {
		var buf bytes.Buffer
		if err := Write(&buf, tr, WithCompression(comp)); err != nil {
			b.Fatal(err)
		}
		data := buf.Bytes()
		run := func(name string, load func() (*trace.Trace, error)) {
			b.Run(comp.String()+"/"+name, func(b *testing.B) {
				b.ReportAllocs()
				for i := 0; i < b.N; i++ {
					if _, err := load(); err != nil {
						b.Fatal(err)
					}
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*events), "ns/event")
			})
		}
		run("sequential", func() (*trace.Trace, error) { return loadSequential(bytes.NewReader(data), region.NewRegistry()) })
		for _, workers := range []int{1, 2} {
			run(fmt.Sprintf("planned-%d", workers), func() (*trace.Trace, error) {
				return ReadAllParallel(bytes.NewReader(data), region.NewRegistry(), workers)
			})
		}
	}
}

// BenchmarkIndexless measures Load and Scan into an Analyzer, at one and
// four workers, over the archives a plan recovers from their framing: a
// raw archive cut where its footer index begins and a flate archive cut
// two thirds in, of a million events each.
func BenchmarkIndexless(b *testing.B) {
	tr := benchTrace(4, 62_500)
	archive := func(opts ...WriterOption) []byte {
		var buf bytes.Buffer
		if err := Write(&buf, tr, opts...); err != nil {
			b.Fatal(err)
		}
		return buf.Bytes()
	}
	flate := archive(WithCompression(CompressionFlate))
	for _, in := range []struct {
		name string
		data []byte
	}{
		{"no-index", unindexed(b, archive())},
		{"cut-flate", flate[:len(flate)*2/3]},
	} {
		for _, workers := range []int{1, 4} {
			b.Run(fmt.Sprintf("%s/load-%d", in.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, _, err := Load(bytes.NewReader(in.data), region.NewRegistry(), Query{}, workers); err != nil && !errors.Is(err, ErrTruncated) {
						b.Fatal(err)
					}
				}
			})
			b.Run(fmt.Sprintf("%s/scan-%d", in.name, workers), func(b *testing.B) {
				for i := 0; i < b.N; i++ {
					if _, err := analyzeParallel(bytes.NewReader(in.data), workers); err != nil && !errors.Is(err, ErrTruncated) {
						b.Fatal(err)
					}
				}
			})
		}
	}
}
