package otf2

import (
	"bytes"
	"fmt"
	"math"
	"math/rand"
	"testing"

	"repro/internal/region"
	"repro/internal/trace"
)

// edgeTaskIDs are the task IDs whose deltas wrap modulo 2^64 when one
// follows another.
var edgeTaskIDs = []uint64{0, 1, 1 << 63, math.MaxUint64}

// edgeEvents returns a generator of events shaped to reach every path of
// the v3 record: region refs 0 to 20 (7 and up escape the head), task
// IDs alternating over edgeTaskIDs with random ones between, and a clock
// that steps back about as often as forward, now and then by 2^62. Each
// event keeps only the fields its listener method records, so a flight
// recorder's replay records it unchanged.
func edgeEvents(rng *rand.Rand, reg *region.Registry) func(now *int64) trace.Event {
	regs := []*region.Region{nil}
	for i := 0; i < 20; i++ {
		regs = append(regs, reg.Register(fmt.Sprintf("edge%d", i), "record_test.go", i, region.UserFunction))
	}
	n := 0
	task := func() uint64 {
		n++
		if n%3 == 0 {
			return rng.Uint64() >> uint(rng.Intn(64))
		}
		return edgeTaskIDs[n%len(edgeTaskIDs)]
	}
	return func(now *int64) trace.Event {
		switch rng.Intn(6) {
		case 0:
			*now -= rng.Int63n(1 << 20)
		case 1:
			*now += rng.Int63n(100)
		case 2:
			*now += 1 << 62 // wraps: the deltas do too
		default:
			*now += rng.Int63n(1<<14) - 1<<13
		}
		ev := trace.Event{Time: *now, Type: trace.EventType(rng.Intn(int(trace.EvThreadEnd) + 1))}
		switch ev.Type {
		case trace.EvEnter, trace.EvExit, trace.EvTaskCreateBegin:
			ev.Region = regs[rng.Intn(len(regs))]
		case trace.EvTaskCreateEnd, trace.EvTaskBegin, trace.EvTaskEnd, trace.EvTaskSwitch:
			ev.Region, ev.TaskID = regs[rng.Intn(len(regs))], task()
		}
		return ev
	}
}

// edgeTrace is threads streams of n events each from edgeEvents.
func edgeTrace(rng *rand.Rand, reg *region.Registry, threads, n int) *trace.Trace {
	next := edgeEvents(rng, reg)
	tr := &trace.Trace{Threads: make(map[int][]trace.Event)}
	for tid := 0; tid < threads; tid++ {
		now := rng.Int63() - math.MaxInt64/2
		for i := 0; i < n; i++ {
			tr.Threads[tid] = append(tr.Threads[tid], next(&now))
		}
	}
	return tr
}

// loadsTo holds every read of archive — the reference reader and the
// planned load at one and three workers — to want.
func loadsTo(t *testing.T, label string, archive []byte, reg *region.Registry, want *trace.Trace) {
	t.Helper()
	got, err := loadSequential(bytes.NewReader(archive), reg)
	if err != nil || !sameEvents(got, want) {
		t.Fatalf("%s: the reference reader reads back other events (err %v)", label, err)
	}
	for _, workers := range []int{1, 3} {
		got, _, err := Load(bytes.NewReader(archive), reg, Query{}, workers)
		if err != nil || !sameEvents(got, want) {
			t.Fatalf("%s: Load at %d workers reads back other events (err %v)", label, workers, err)
		}
	}
}

// TestRecordRoundTrip holds the event record to Write → Load = identity
// on the events that stress it, through the Writer (sealing by bytes, and
// with a chunk boundary after every k events), and through a flight
// recorder's rings and dump, where a chunk also ends after every k
// events and a ring's oldest chunk starts mid-stream. (The sink's
// stream is held to it in internal/sink.)
func TestRecordRoundTrip(t *testing.T) {
	for seed := int64(1); seed <= 4; seed++ {
		rng := rand.New(rand.NewSource(seed))
		reg := region.NewRegistry()
		tr := edgeTrace(rng, reg, 3, 300)
		for _, comp := range []Compression{CompressionNone, CompressionFlate} {
			var buf bytes.Buffer
			if err := Write(&buf, tr, WithChunkBytes(1024), WithCompression(comp)); err != nil {
				t.Fatal(err)
			}
			loadsTo(t, fmt.Sprintf("seed %d, %s", seed, comp), buf.Bytes(), reg, tr)
		}
		for k := 1; k <= 9; k++ {
			var buf bytes.Buffer
			w := NewWriter(&buf, WithChunkBytes(1<<20))
			for _, tid := range tr.ThreadIDs() {
				for evs := tr.Threads[tid]; len(evs) > 0; evs = evs[min(k, len(evs)):] {
					w.WriteEvents(tid, evs[:min(k, len(evs))]) //nolint:errcheck // latched: Close returns it
					w.Flush()                                  //nolint:errcheck
				}
			}
			if err := w.Close(); err != nil {
				t.Fatal(err)
			}
			ix, err := ReadIndex(bytes.NewReader(buf.Bytes()))
			if err != nil {
				t.Fatal(err)
			}
			for _, tc := range ix.Threads {
				if want := (len(tr.Threads[tc.Thread]) + k - 1) / k; len(tc.Chunks) != want {
					t.Fatalf("k=%d: thread %d has %d chunks, want %d", k, tc.Thread, len(tc.Chunks), want)
				}
			}
			loadsTo(t, fmt.Sprintf("seed %d, a chunk every %d events", seed, k), buf.Bytes(), reg, tr)
		}
	}
	for _, chunk := range []int{1, 2, 3, 5, 64} {
		for _, ring := range []int{1, 3, 1000} {
			rng := rand.New(rand.NewSource(int64(chunk*31 + ring)))
			reg := region.NewRegistry()
			next := edgeEvents(rng, reg)
			p := newFlightPair(reg, ring, chunk)
			now := []int64{0, math.MinInt64 + 5}
			for i := 0; i < 400; i++ {
				id := i % 2
				p.record(id, next(&now[id]))
				if i%97 == 0 {
					p.check(t, fmt.Sprintf("chunk %d ring %d after %d events", chunk, ring, i+1))
				}
			}
			dump := p.check(t, fmt.Sprintf("chunk %d ring %d", chunk, ring))
			if ring == 1000 {
				// The ring kept everything: the dump is the whole stream.
				want, _ := p.ref.snapshot()
				loadsTo(t, fmt.Sprintf("flight chunk %d", chunk), dump, reg, want)
				if want.NumEvents() != 400 {
					t.Fatalf("chunk %d: the ring kept %d of 400 events", chunk, want.NumEvents())
				}
			}
		}
	}
}
