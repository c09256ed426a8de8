package sink

import (
	"encoding/json"
	"errors"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"

	"repro/internal/otf2"
)

// journalFileName is the server's crash-recovery journal inside the
// experiment directory. It records stream identity and status — not
// per-ack offsets: the durable offset is re-derived at recovery time by
// scanning each shard for its intact archive prefix, which is always
// correct no matter when the crash hit, and costs one sequential read
// per shard instead of a journal write per ack.
const journalFileName = "sink-journal.json"

// journalVersion identifies the journal schema.
const journalVersion = 1

type journalEntry struct {
	ID            string `json:"id"`
	Token         uint64 `json:"token,omitempty"`
	File          string `json:"file"`
	Bytes         int64  `json:"bytes"`
	Frames        int64  `json:"frames,omitempty"`
	DroppedEvents int64  `json:"droppedEvents,omitempty"`
	GapBytes      int64  `json:"gapBytes,omitempty"`
	Resumes       int64  `json:"resumes,omitempty"`
	Complete      bool   `json:"complete"`
	Sealed        bool   `json:"sealed"`
	Err           string `json:"err,omitempty"`
}

type journalDoc struct {
	Version int            `json:"version"`
	Streams []journalEntry `json:"streams"`
}

// writeJournalLocked persists the stream table. Written via temp file +
// atomic rename, so a crash mid-write leaves the previous journal
// intact; called (under s.mu) at registration, resume and seal — the
// moments stream identity or terminal status changes.
func (s *Server) writeJournalLocked() {
	doc := journalDoc{Version: journalVersion}
	for _, id := range s.streamOrderLocked() {
		st := s.states[id]
		doc.Streams = append(doc.Streams, journalEntry{
			ID:            st.info.ID,
			Token:         st.token,
			File:          st.info.File,
			Bytes:         st.durable,
			Frames:        st.info.Frames,
			DroppedEvents: st.info.DroppedEvents,
			GapBytes:      st.info.GapBytes,
			Resumes:       st.info.Resumes,
			Complete:      st.info.Complete,
			Sealed:        st.sealed,
			Err:           st.info.Err,
		})
	}
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		s.setErr(fmt.Errorf("sink: encoding journal: %w", err))
		return
	}
	data = append(data, '\n')
	path := filepath.Join(s.dir, journalFileName)
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		s.setErr(fmt.Errorf("sink: writing journal: %w", err))
		return
	}
	if err := os.Rename(tmp, path); err != nil {
		s.setErr(fmt.Errorf("sink: writing journal: %w", err))
	}
}

// streamOrderLocked returns stream ids in arrival order (the order of
// s.streams).
func (s *Server) streamOrderLocked() []string {
	ids := make([]string, 0, len(s.streams))
	for _, info := range s.streams {
		ids = append(ids, info.ID)
	}
	return ids
}

// recover rebuilds the stream table from a previous server's journal in
// s.dir, if one exists. Every journaled shard is scanned for its intact
// archive prefix (the cut point otf2.ScanFile and LoadFile salvage to)
// and truncated there — a crash mid-write leaves a partial chunk, which
// resuming must not build on. Sealed streams keep their status; a
// sealed-complete shard that lost bytes is demoted to failed with the
// loss counted. Unsealed streams await resume at the recovered durable
// offset. A shard that cannot be scanned — unreadable, or an archive of
// a format version this build does not read — is left as it is and its
// stream sealed, with the reason in its Err. A journal entry names its shard by a plain file name in
// s.dir, as the server writes it; an entry naming anything else — a path
// out of the directory, a subdirectory, the directory itself — is
// refused, with the whole journal, before any file is opened, so a
// damaged or hostile journal cannot make recovery truncate a file
// elsewhere.
func (s *Server) recover() error {
	data, err := os.ReadFile(filepath.Join(s.dir, journalFileName))
	if errors.Is(err, fs.ErrNotExist) {
		return nil
	}
	if err != nil {
		return fmt.Errorf("sink: reading journal: %w", err)
	}
	var doc journalDoc
	if err := json.Unmarshal(data, &doc); err != nil {
		return fmt.Errorf("sink: parsing journal: %w", err)
	}
	if doc.Version != journalVersion {
		return fmt.Errorf("sink: journal version %d not supported", doc.Version)
	}
	for _, e := range doc.Streams {
		if e.ID == "" || e.File == "" {
			return fmt.Errorf("sink: journal entry missing id or file")
		}
		if !plainFileName(e.File) {
			return fmt.Errorf("sink: journal entry %q names %q, not a file in %s", e.ID, e.File, s.dir)
		}
	}
	for _, e := range doc.Streams {
		st := &streamState{
			token:  e.Token,
			sealed: e.Sealed,
			info: &StreamInfo{
				ID:            e.ID,
				File:          e.File,
				Frames:        e.Frames,
				DroppedEvents: e.DroppedEvents,
				GapBytes:      e.GapBytes,
				Resumes:       e.Resumes,
				Complete:      e.Complete,
				Sealed:        e.Sealed,
				Err:           e.Err,
			},
		}
		path := filepath.Join(s.dir, e.File)
		switch intact, perr := otf2.IntactPrefixSize(path); {
		case perr != nil:
			st.sealed = true
			st.info.Complete = false
			st.info.Err = fmt.Sprintf("shard unreadable after daemon restart: %v", perr)
		default:
			if fi, serr := os.Stat(path); serr == nil && fi.Size() > intact {
				if terr := os.Truncate(path, intact); terr != nil {
					st.sealed = true
					st.info.Complete = false
					st.info.Err = fmt.Sprintf("truncating shard to intact prefix: %v", terr)
				}
			}
			st.durable = intact
			st.info.Bytes = intact
			if e.Complete && intact < e.Bytes {
				st.sealed = true
				st.info.Complete = false
				st.info.Err = fmt.Sprintf("shard lost %d of %d sealed bytes", e.Bytes-intact, e.Bytes)
			}
			if !st.sealed {
				st.info.Complete = false
				st.info.Err = "interrupted by daemon restart; awaiting resume"
			}
		}
		st.info.Sealed = st.sealed
		s.used[e.ID] = 1
		s.states[e.ID] = st
		s.streams = append(s.streams, st.info)
		s.recovered++
	}
	return nil
}

// plainFileName reports whether name is a file name and nothing more:
// joined to a directory, it names a file directly inside it.
func plainFileName(name string) bool {
	return name == filepath.Base(name) && name != "." && name != ".." && name != string(filepath.Separator)
}
