package otf2

import (
	"bytes"
	"errors"
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
// the v4 record: region refs 0 to 20 (7 and up escape the head), task
// IDs alternating over edgeTaskIDs with random ones between and runs of
// one ID (the same-task codes), and a clock that steps back about as
// often as forward (ten-byte deltas), now and then by 2^62. Each event
// keeps only the fields its listener method records, so a flight
// recorder's replay records it unchanged.
func edgeEvents(rng *rand.Rand, reg *region.Registry) func(now *int64) trace.Event {
	regs := []*region.Region{nil}
	for i := 0; i < 20; i++ {
		regs = append(regs, reg.Register(fmt.Sprintf("edge%d", i), "record_test.go", i, region.UserFunction))
	}
	n, last := 0, uint64(0)
	task := func() uint64 {
		n++
		switch {
		case rng.Intn(3) == 0: // a run of the task before
		case n%3 == 0:
			last = rng.Uint64() >> uint(rng.Intn(64))
		default:
			last = edgeTaskIDs[n%len(edgeTaskIDs)]
		}
		return last
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

// sameTaskRecords counts the records of archive's event chunks whose
// head carries a same-task code.
func sameTaskRecords(t *testing.T, archive []byte) int {
	t.Helper()
	n := 0
	_, err := walk(bytes.NewReader(archive), int64(headerLen), int64(len(archive)), func(f frame) error {
		p := archive[f.body : f.body+int64(f.size)]
		switch f.kind {
		case chunkCompressed:
			raw, err := inflateChunk(nil, p)
			if err != nil {
				return err
			}
			p = raw
		case chunkEvents:
		default:
			return nil
		}
		c := &cursor{payload: p}
		c.varint("thread")             //nolint:errcheck // the loads read it
		count, _ := c.uvarint("count") // the loads read it
		for range count {
			head := p[c.pos]
			c.pos++
			if head>>headRefShift == headRefEscape {
				c.uvarint("region ref") //nolint:errcheck // the loads read it
			}
			c.uvarint("time delta") //nolint:errcheck
			if head&headTask != 0 {
				c.varint("task id") //nolint:errcheck
			}
			if head&headTypeMask > maxEventType {
				n++
			}
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	return n
}

// TestRecordRoundTrip holds the event record to Write → Load = identity
// on the events that stress it, through the Writer (sealing by bytes, and
// with a chunk boundary after every k events, which the runs of one task
// cross), and through a flight recorder's rings and dump, where a chunk
// also ends after every k events and a ring's oldest chunk starts
// mid-stream. (The sink's stream is held to it in internal/sink.)
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
			if sameTaskRecords(t, buf.Bytes()) == 0 {
				t.Fatalf("seed %d, %s: no record takes a same-task code", seed, comp)
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

// v4RecordCase is a one-chunk v4 archive and what reading it gives: ok,
// a cut (an error wrapping ErrTruncated) or, neither, corruption.
type v4RecordCase struct {
	name    string
	archive []byte
	ok, cut bool
}

// v4RecordCases are the v4 record's rules at their edges, as archives of
// one event chunk (thread 0, no definitions): a TaskBegin of task 1, then
// each code 9 to 15 — 9 to 12 its task again, 13 to 15 corrupt — and each
// code as a chunk's first task record, where 9 to 12 have no task to
// repeat; a same-task code with the task flag; a present zero task delta
// on a task event (corrupt: its code says so) and on an Enter (valid); a
// step back of 1 ns, a ten-byte delta, whole, cut by the archive's end
// and cut by its chunk's end. FuzzCodec starts from them too.
func v4RecordCases() []v4RecordCase {
	chunk := func(records string, count byte) []byte {
		return []byte(magic + "\x04E" + string([]byte{byte(2 + len(records)), 0, count}) + records)
	}
	var cases []v4RecordCase
	for code := byte(9); code <= 15; code++ {
		cases = append(cases,
			v4RecordCase{fmt.Sprintf("code %d after a task", code), chunk("\x14\x00\x02"+string([]byte{code, 0}), 2), code <= 12, false},
			v4RecordCase{fmt.Sprintf("code %d first", code), chunk(string([]byte{code, 0}), 1), false, false})
	}
	back := chunk("\x00\xff\xff\xff\xff\xff\xff\xff\xff\xff\x01", 1)
	return append(cases,
		v4RecordCase{"same-task code with the task flag", chunk("\x14\x00\x02\x1a\x00", 2), false, false},
		v4RecordCase{"zero task delta on a TaskBegin", chunk("\x14\x00\x02\x14\x00\x00", 2), false, false},
		v4RecordCase{"zero task delta on an Enter", chunk("\x14\x00\x02\x10\x00\x00", 2), true, false},
		v4RecordCase{"ten-byte delta", back, true, false},
		v4RecordCase{"ten-byte delta, archive cut", back[:len(back)-5], false, true},
		v4RecordCase{"ten-byte delta, chunk cut", append([]byte(magic+"\x04E\x08"), back[headerLen+2:headerLen+10]...), false, false},
	)
}

// TestV4RecordRules reads each of v4RecordCases with the reference reader
// and the planned load: both must accept, cut or refuse it as the case
// says.
func TestV4RecordRules(t *testing.T) {
	for _, c := range v4RecordCases() {
		_, werr := loadSequential(bytes.NewReader(c.archive), region.NewRegistry())
		_, _, err := Load(bytes.NewReader(c.archive), region.NewRegistry(), Query{}, 1)
		for reader, err := range map[string]error{"reference": werr, "planned": err} {
			if (err == nil) != c.ok || errors.Is(err, ErrTruncated) != c.cut {
				t.Errorf("%s: the %s reader returns %v", c.name, reader, err)
			}
		}
	}
}
