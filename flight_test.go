package scorep_test

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"net/url"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"

	scorep "repro"
	"repro/internal/faultinject"
)

// newFlightSession creates a session with a small flight ring and the
// dump signal disabled, so tests control every trigger themselves.
func newFlightSession(t *testing.T, extra ...scorep.Option) *scorep.Session {
	t.Helper()
	opts := append([]scorep.Option{
		scorep.WithFlightRecorder(2),
		scorep.WithFlightChunkEvents(32),
		scorep.WithDumpSignal(nil),
	}, extra...)
	return scorep.NewSession(opts...)
}

func TestSessionFlightRecorderDumpIsAnalyzable(t *testing.T) {
	s := newFlightSession(t)
	runSessionWorkload(t, s, "fd", 2, 200) // plenty of eviction for ring 2x32

	live := s.FlightRecorderStats()
	if !live.Enabled || live.RingChunks != 2 || live.ChunkEvents != 32 {
		t.Fatalf("live stats = %+v, want enabled 2x32 ring", live)
	}
	if live.DroppedEvents == 0 || live.DroppedChunks == 0 {
		t.Fatalf("workload did not overflow the ring: %+v", live)
	}

	dir := filepath.Join(t.TempDir(), "dump")
	got, err := s.DumpFlightRecorder(dir)
	if err != nil {
		t.Fatalf("DumpFlightRecorder: %v", err)
	}
	if got != dir {
		t.Fatalf("dump dir = %q, want %q", got, dir)
	}

	// The dump is a complete experiment: metadata, trace, analysis and
	// bottleneck paths all work, and the accounting matches the live view.
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatalf("OpenExperiment on dump: %v", err)
	}
	fr := exp.Meta.FlightRecorder
	if fr == nil {
		t.Fatal("dump meta.json has no flightRecorder accounting")
	}
	if fr.Trigger != "api" || fr.Partial {
		t.Fatalf("dump accounting = %+v, want trigger=api, complete", fr)
	}
	if fr.DroppedEvents < live.DroppedEvents || fr.RetainedEvents == 0 {
		t.Fatalf("dump counts %+v inconsistent with live %+v", fr, live)
	}
	tr, err := exp.Trace()
	if err != nil {
		t.Fatalf("Trace: %v", err)
	}
	if tr.NumEvents() != fr.RetainedEvents {
		t.Fatalf("archive holds %d events, accounting says %d", tr.NumEvents(), fr.RetainedEvents)
	}
	if a, err := exp.TraceAnalysis(); err != nil || a == nil {
		t.Fatalf("TraceAnalysis: %v", err)
	}
	if b, err := exp.Bottlenecks(); err != nil || b == nil {
		t.Fatalf("Bottlenecks: %v", err)
	}
	if w := exp.Warnings(); len(w) != 0 {
		t.Fatalf("complete dump produced warnings: %v", w)
	}

	// The dump did not disturb the session: it records and ends normally.
	runSessionWorkload(t, s, "fd2", 2, 8)
	res, err := s.End()
	if err != nil {
		t.Fatalf("End after dump: %v", err)
	}
	if res.FlightRecorder() == nil {
		t.Fatal("Results.FlightRecorder = nil for a flight session")
	}
}

func TestSessionFlightRecorderSavedExperiment(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "exp")
	s := newFlightSession(t, scorep.WithExperimentDirectory(dir))
	runSessionWorkload(t, s, "fs", 2, 200)
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	fr := res.FlightRecorder()
	if fr == nil || fr.Trigger != "end" {
		t.Fatalf("Results.FlightRecorder = %+v, want trigger=end", fr)
	}
	if fr.DroppedEvents == 0 {
		t.Fatal("expected eviction in a 2x32 ring under 200 tasks")
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatal(err)
	}
	mfr := exp.Meta.FlightRecorder
	if mfr == nil {
		t.Fatal("saved experiment meta has no flightRecorder accounting")
	}
	if mfr.DroppedEvents != fr.DroppedEvents || mfr.RetainedEvents != fr.RetainedEvents {
		t.Fatalf("meta accounting %+v != results accounting %+v", mfr, fr)
	}
	tr, err := exp.Trace()
	if err != nil {
		t.Fatal(err)
	}
	if tr.NumEvents() != fr.RetainedEvents {
		t.Fatalf("archived window %d events, accounting says %d", tr.NumEvents(), fr.RetainedEvents)
	}
}

func TestSessionDumpOnPanicSalvagesWindow(t *testing.T) {
	s := newFlightSession(t)
	dir := filepath.Join(t.TempDir(), "crash")
	runSessionWorkload(t, s, "fp", 2, 200)
	before := s.FlightRecorderStats() // the workload is quiesced: these are the exact counts

	func() {
		defer func() {
			if r := recover(); r == nil {
				t.Error("DumpOnPanic swallowed the panic")
			} else if r != "boom" {
				t.Errorf("re-panicked with %v, want the original value", r)
			}
		}()
		defer s.DumpOnPanic(dir)
		panic("boom")
	}()

	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatalf("panic dump missing: %v", err)
	}
	fr := exp.Meta.FlightRecorder
	if fr == nil || fr.Trigger != "panic" {
		t.Fatalf("accounting = %+v, want trigger=panic", fr)
	}
	if fr.DroppedEvents != before.DroppedEvents || fr.DroppedChunks != before.DroppedChunks ||
		fr.RetainedEvents != before.RetainedEvents {
		t.Fatalf("panic dump counts %+v, want exactly the pre-panic state %+v", fr, before)
	}
	if b, err := exp.Bottlenecks(); err != nil || b == nil {
		t.Fatalf("bottleneck analysis of the crash window: %v", err)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFlightRecorderSignalDump(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "exp")
	s := scorep.NewSession(
		scorep.WithFlightRecorder(2),
		scorep.WithFlightChunkEvents(32),
		scorep.WithDumpSignal(syscall.SIGUSR2), // not the default, so a stray USR1 can't confuse the test
		scorep.WithExperimentDirectory(dir),
	)
	runSessionWorkload(t, s, "fg", 2, 50)
	if err := syscall.Kill(os.Getpid(), syscall.SIGUSR2); err != nil {
		t.Fatal(err)
	}
	deadline := time.Now().Add(10 * time.Second)
	var st scorep.FlightRecorderStats
	for {
		st = s.FlightRecorderStats()
		if st.Dumps > 0 {
			break
		}
		if time.Now().After(deadline) {
			t.Fatal("signal did not trigger a dump within 10s")
		}
		time.Sleep(10 * time.Millisecond)
	}
	if st.LastTrigger != "signal" {
		t.Fatalf("trigger = %q, want signal", st.LastTrigger)
	}
	exp, err := scorep.OpenExperiment(st.LastDumpDir)
	if err != nil {
		t.Fatalf("signal dump at %q unreadable: %v", st.LastDumpDir, err)
	}
	if !strings.HasPrefix(filepath.Base(st.LastDumpDir), "flight-") || filepath.Dir(st.LastDumpDir) != dir {
		t.Fatalf("signal dump landed at %q, want flight-NNN under %q", st.LastDumpDir, dir)
	}
	if exp.Meta.FlightRecorder == nil || exp.Meta.FlightRecorder.Trigger != "signal" {
		t.Fatalf("accounting = %+v", exp.Meta.FlightRecorder)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFlightRecorderBottleneckTrigger(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "exp")
	s := newFlightSession(t,
		scorep.WithExperimentDirectory(dir),
		// Severity bound 0: any finding at all trips the trigger.
		scorep.WithBottleneckTrigger(0, 5*time.Millisecond),
	)
	// Imbalanced: thread 0 creates all tasks. The trigger sees whatever
	// window its tick finds, and the few events a 2x32 ring holds at
	// rest need not show a wait state: keep the windows coming.
	deadline := time.Now().Add(10 * time.Second)
	for s.FlightRecorderStats().Dumps == 0 {
		if time.Now().After(deadline) {
			t.Fatal("bottleneck trigger did not fire within 10s")
		}
		runSessionWorkload(t, s, "fb", 4, 100)
		time.Sleep(5 * time.Millisecond)
	}
	st := s.FlightRecorderStats()
	if st.LastTrigger != "bottleneck" {
		t.Fatalf("trigger = %q, want bottleneck", st.LastTrigger)
	}
	exp, err := scorep.OpenExperiment(st.LastDumpDir)
	if err != nil {
		t.Fatalf("bottleneck dump unreadable: %v", err)
	}
	if exp.Meta.FlightRecorder.Trigger != "bottleneck" {
		t.Fatalf("accounting trigger = %q", exp.Meta.FlightRecorder.Trigger)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionFlightRecorderHandler(t *testing.T) {
	s := newFlightSession(t)
	runSessionWorkload(t, s, "fh", 2, 100)
	srv := httptest.NewServer(s.FlightRecorderHandler())
	defer srv.Close()

	resp, err := http.Get(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	var st scorep.FlightRecorderStats
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if !st.Enabled || st.RetainedEvents == 0 {
		t.Fatalf("GET stats = %+v", st)
	}

	dir := filepath.Join(t.TempDir(), "httpdump")
	resp, err = http.PostForm(srv.URL, url.Values{"dir": {dir}})
	if err != nil {
		t.Fatal(err)
	}
	var out map[string]string
	if err := json.NewDecoder(resp.Body).Decode(&out); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK || out["dir"] != dir {
		t.Fatalf("POST = %d %v", resp.StatusCode, out)
	}
	exp, err := scorep.OpenExperiment(dir)
	if err != nil {
		t.Fatalf("HTTP dump unreadable: %v", err)
	}
	if exp.Meta.FlightRecorder.Trigger != "http" {
		t.Fatalf("trigger = %q, want http", exp.Meta.FlightRecorder.Trigger)
	}

	resp, err = http.Head(srv.URL)
	if err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if resp.StatusCode != http.StatusMethodNotAllowed {
		t.Fatalf("HEAD = %d, want 405", resp.StatusCode)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

// TestSessionFlightArchiveDiskFull streams a dump onto a full fake disk:
// the error must surface, the written prefix must salvage, and the
// session must keep working as if nothing happened.
func TestSessionFlightArchiveDiskFull(t *testing.T) {
	s := newFlightSession(t)
	runSessionWorkload(t, s, "ff", 2, 200)

	path := filepath.Join(t.TempDir(), "partial.otf2")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	fw := faultinject.NewWriter(f, faultinject.CapacityBytes(256))
	werr := s.WriteFlightRecorderArchive(fw)
	f.Close()
	if werr == nil {
		t.Fatal("full-disk archive write did not surface an error")
	}

	// The intact prefix still opens and still carries its accounting.
	pst, err := scorep.StatTraceArchive(path)
	if err != nil {
		t.Fatalf("StatTraceArchive on salvaged prefix: %v", err)
	}
	if pst.Flight == nil {
		t.Fatal("salvaged prefix lost the flight accounting chunk")
	}

	// The session is unharmed: more recording, a healthy dump, a clean end.
	runSessionWorkload(t, s, "ff2", 2, 20)
	dir := filepath.Join(t.TempDir(), "ok")
	if _, err := s.DumpFlightRecorder(dir); err != nil {
		t.Fatalf("dump after disk-full incident: %v", err)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestSessionWithoutFlightRecorder(t *testing.T) {
	s := scorep.NewSession()
	if st := s.FlightRecorderStats(); st.Enabled {
		t.Fatal("plain session claims a flight recorder")
	}
	if _, err := s.DumpFlightRecorder(t.TempDir()); err == nil {
		t.Fatal("DumpFlightRecorder on a plain session did not error")
	}
	// DumpOnPanic must still re-panic even without a recorder.
	func() {
		defer func() {
			if recover() == nil {
				t.Error("DumpOnPanic swallowed the panic without a recorder")
			}
		}()
		defer s.DumpOnPanic("")
		panic("plain")
	}()
	res, err := s.End()
	if err != nil {
		t.Fatal(err)
	}
	if res.FlightRecorder() != nil {
		t.Fatal("plain run reports flight accounting")
	}
}

func TestNewSessionFromEnvFlightRecorder(t *testing.T) {
	t.Setenv(scorep.EnvFlightRecorder, "16")
	t.Setenv(scorep.EnvDumpSignal, "none")
	s, err := scorep.NewSessionFromEnv()
	if err != nil {
		t.Fatal(err)
	}
	st := s.FlightRecorderStats()
	if !st.Enabled || st.RingChunks != 16 {
		t.Fatalf("stats = %+v, want a 16-chunk ring from %s", st, scorep.EnvFlightRecorder)
	}
	if !s.Tracing() {
		t.Error("flight recorder implies tracing")
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSessionFromEnvFlightRecorderSpellings(t *testing.T) {
	for _, tc := range []struct {
		val     string
		enabled bool
		ring    int
	}{
		{"true", true, scorep.DefaultFlightRingChunks},
		{"yes", true, scorep.DefaultFlightRingChunks},
		{"1", true, scorep.DefaultFlightRingChunks}, // boolean spelling, like Score-P's
		{"8", true, 8},
		{"false", false, 0},
		{"off", false, 0},
		{"0", false, 0},
	} {
		t.Run(tc.val, func(t *testing.T) {
			t.Setenv(scorep.EnvFlightRecorder, tc.val)
			t.Setenv(scorep.EnvDumpSignal, "none")
			s, err := scorep.NewSessionFromEnv()
			if err != nil {
				t.Fatal(err)
			}
			st := s.FlightRecorderStats()
			if st.Enabled != tc.enabled {
				t.Fatalf("%s=%q: enabled = %v, want %v", scorep.EnvFlightRecorder, tc.val, st.Enabled, tc.enabled)
			}
			if tc.enabled && st.RingChunks != tc.ring {
				t.Fatalf("%s=%q: ring = %d, want %d", scorep.EnvFlightRecorder, tc.val, st.RingChunks, tc.ring)
			}
			if _, err := s.End(); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func TestNewSessionFromEnvFlightRecorderOverridesBase(t *testing.T) {
	t.Setenv(scorep.EnvFlightRecorder, "off")
	t.Setenv(scorep.EnvDumpSignal, "none")
	s, err := scorep.NewSessionFromEnv(scorep.WithFlightRecorder(4))
	if err != nil {
		t.Fatal(err)
	}
	if s.FlightRecorderStats().Enabled {
		t.Errorf("%s=off must override a base WithFlightRecorder", scorep.EnvFlightRecorder)
	}
	if _, err := s.End(); err != nil {
		t.Fatal(err)
	}
}

func TestNewSessionFromEnvRejectsBadFlightSettings(t *testing.T) {
	for _, tc := range []struct{ env, val string }{
		{scorep.EnvFlightRecorder, "banana"},
		{scorep.EnvFlightRecorder, "-3"},
		{scorep.EnvDumpSignal, "SIGLOL"},
		{scorep.EnvDumpSignal, "17"},
	} {
		t.Run(tc.env+"="+tc.val, func(t *testing.T) {
			t.Setenv(tc.env, tc.val)
			if _, err := scorep.NewSessionFromEnv(); err == nil {
				t.Fatalf("%s=%q accepted, want an error", tc.env, tc.val)
			} else if !strings.Contains(err.Error(), tc.env) {
				t.Fatalf("error %q does not name the variable", err)
			}
		})
	}
}

func TestNewSessionFromEnvDumpSignalSpellings(t *testing.T) {
	for _, val := range []string{"USR2", "SIGUSR2", "usr2", "sigusr2"} {
		t.Run(val, func(t *testing.T) {
			t.Setenv(scorep.EnvFlightRecorder, "4")
			t.Setenv(scorep.EnvDumpSignal, val)
			s, err := scorep.NewSessionFromEnv()
			if err != nil {
				t.Fatalf("%s=%q rejected: %v", scorep.EnvDumpSignal, val, err)
			}
			if _, err := s.End(); err != nil {
				t.Fatal(err)
			}
		})
	}
}
