package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"

	"repro/internal/region"
)

// jsonEvent is the serialized record form (JSON Lines, one event per
// line — the plain-text stand-in for OTF2).
type jsonEvent struct {
	Thread int    `json:"t"`
	Time   int64  `json:"ts"`
	Type   string `json:"ev"`
	Region string `json:"r,omitempty"`
	File   string `json:"f,omitempty"`
	Line   int    `json:"l,omitempty"`
	RType  string `json:"rt,omitempty"`
	TaskID uint64 `json:"task,omitempty"`
}

// WriteJSONL serializes the trace as JSON Lines ordered by thread, then
// time (per-thread order is preserved).
func WriteJSONL(w io.Writer, tr *Trace) error {
	bw := bufio.NewWriter(w)
	enc := json.NewEncoder(bw)
	for _, tid := range tr.ThreadIDs() {
		for _, ev := range tr.Threads[tid] {
			je := jsonEvent{
				Thread: tid,
				Time:   ev.Time,
				Type:   ev.Type.String(),
				TaskID: ev.TaskID,
			}
			if ev.Region != nil {
				je.Region = ev.Region.Name
				je.File = ev.Region.File
				je.Line = ev.Region.Line
				je.RType = ev.Region.Type.String()
			}
			if err := enc.Encode(je); err != nil {
				return fmt.Errorf("trace: encoding event: %w", err)
			}
		}
	}
	return bw.Flush()
}

var typeByName = func() map[string]EventType {
	m := make(map[string]EventType, len(evNames))
	for t, n := range evNames {
		m[n] = t
	}
	return m
}()

var regionTypeByName = func() map[string]region.Type {
	m := make(map[string]region.Type)
	for t := region.UserFunction; t <= region.Parameter; t++ {
		m[t.String()] = t
	}
	return m
}()

// ReadJSONL deserializes a trace written by WriteJSONL, interning
// regions into reg.
func ReadJSONL(r io.Reader, reg *region.Registry) (*Trace, error) {
	tr := &Trace{Threads: make(map[int][]Event)}
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	line := 0
	for sc.Scan() {
		line++
		if len(sc.Bytes()) == 0 {
			continue
		}
		var je jsonEvent
		if err := json.Unmarshal(sc.Bytes(), &je); err != nil {
			return nil, fmt.Errorf("trace: line %d: %w", line, err)
		}
		typ, ok := typeByName[je.Type]
		if !ok {
			return nil, fmt.Errorf("trace: line %d: unknown event type %q", line, je.Type)
		}
		ev := Event{Time: je.Time, Type: typ, TaskID: je.TaskID}
		if je.Region != "" {
			rt, ok := regionTypeByName[je.RType]
			if !ok {
				return nil, fmt.Errorf("trace: line %d: unknown region type %q", line, je.RType)
			}
			ev.Region = reg.Register(je.Region, je.File, je.Line, rt)
		}
		tr.Threads[je.Thread] = append(tr.Threads[je.Thread], ev)
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("trace: line %d: %w", line+1, err)
	}
	return tr, nil
}
