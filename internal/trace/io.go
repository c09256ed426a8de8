package trace

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
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
