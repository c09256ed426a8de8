package scorep_test

import (
	"bytes"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
)

// TestCommandLineTools builds and exercises every cmd/ binary end to
// end: profile a run, save it, render it, diff it, analyze it, and draw
// its timeline. Skipped with -short.
func TestCommandLineTools(t *testing.T) {
	if testing.Short() {
		t.Skip("CLI integration test skipped in -short mode")
	}
	dir := t.TempDir()

	bin := map[string]string{}
	for _, name := range []string{"scorep-bots", "scorep-exp", "scorep-report", "scorep-analyze", "scorep-timeline", "scorep-convert"} {
		out := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", out, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		bin[name] = out
	}

	run := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin[name], args...)
		b, err := cmd.CombinedOutput()
		if err != nil {
			t.Fatalf("%s %v: %v\n%s", name, args, err, b)
		}
		return string(b)
	}
	// runOut captures stdout only — for byte-identity comparisons that
	// must not see informational stderr notes (e.g. index chunk counts).
	runOut := func(name string, args ...string) string {
		t.Helper()
		cmd := exec.Command(bin[name], args...)
		var stdout, stderr bytes.Buffer
		cmd.Stdout, cmd.Stderr = &stdout, &stderr
		if err := cmd.Run(); err != nil {
			t.Fatalf("%s %v: %v\n%s%s", name, args, err, stdout.String(), stderr.String())
		}
		return stdout.String()
	}

	repA := filepath.Join(dir, "a.json")
	repB := filepath.Join(dir, "b.json")
	tracePath := filepath.Join(dir, "t.otf2")

	// scorep-bots: run, verify, save profiles.
	out := run("scorep-bots", "-code", "fib", "-size", "tiny", "-threads", "2", "-json", repA)
	if !strings.Contains(out, "verification: OK") {
		t.Errorf("scorep-bots did not verify:\n%s", out)
	}
	if !strings.Contains(out, "TASK TREES") {
		t.Errorf("scorep-bots printed no task trees:\n%s", out)
	}
	run("scorep-bots", "-code", "fib", "-size", "tiny", "-threads", "4", "-cutoff", "-json", repB)

	// scorep-report: render, CSV, diff.
	out = run("scorep-report", "-in", repA)
	if !strings.Contains(out, "fib.task") {
		t.Errorf("report render missing task construct:\n%s", out)
	}
	out = run("scorep-report", "-in", repA, "-csv")
	if !strings.Contains(out, "tree,path,kind") {
		t.Errorf("CSV header missing:\n%s", out)
	}
	out = run("scorep-report", "-in", repA, "-diff", repB, "-top", "5")
	if !strings.Contains(out, "delta=") {
		t.Errorf("diff output missing deltas:\n%s", out)
	}

	// scorep-exp: one quick table.
	out = run("scorep-exp", "-table", "2", "-size", "tiny")
	if !strings.Contains(out, "Table II") || !strings.Contains(out, "alignment") {
		t.Errorf("scorep-exp table 2 malformed:\n%s", out)
	}

	// scorep-analyze: saved report and live run.
	out = run("scorep-analyze", "-in", repA)
	if !strings.Contains(out, "finding") && !strings.Contains(out, "no tasking inefficiencies") {
		t.Errorf("scorep-analyze produced no verdict:\n%s", out)
	}
	out = run("scorep-analyze", "-code", "fib", "-size", "tiny", "-threads", "2")
	if !strings.Contains(out, "management/execution ratio") {
		t.Errorf("live analyze missing trace metrics:\n%s", out)
	}
	// -json works in every mode: a report input emits its findings in
	// the same envelope the trace modes use.
	out = runOut("scorep-analyze", "-in", repA, "-json")
	if !strings.HasPrefix(strings.TrimSpace(out), "{") {
		t.Errorf("scorep-analyze -in -json did not emit a JSON object:\n%s", out)
	}

	// scorep-timeline: live run with save, then re-render from file.
	out = run("scorep-timeline", "-code", "sort", "-size", "tiny", "-threads", "2", "-save", tracePath)
	if !strings.Contains(out, "legend:") {
		t.Errorf("timeline missing legend:\n%s", out)
	}
	out = run("scorep-timeline", "-in", tracePath, "-width", "40")
	if !strings.Contains(out, "thread") {
		t.Errorf("timeline from saved trace failed:\n%s", out)
	}

	// scorep-convert: a recorded archive dumps as JSONL with stats, the
	// same text at every worker count, and the archive must hit the
	// format's compression target (<= 1/8 the bytes/event of its JSONL
	// dump on a real BOTS trace). fib tiny records ~50k events, enough
	// that the archive's fixed header/definition overhead is irrelevant.
	archivePath := filepath.Join(dir, "fib.otf2")
	dumpPath := filepath.Join(dir, "fib.jsonl")
	run("scorep-timeline", "-code", "fib", "-size", "tiny", "-threads", "2", "-save", archivePath)
	out = run("scorep-convert", "-in", archivePath, "-out", dumpPath, "-stats", "-parallel", "1")
	if !strings.Contains(out, "format=otf2") || !strings.Contains(out, "format=jsonl") {
		t.Errorf("convert stats missing the archive or the dump line:\n%s", out)
	}
	dump := func(path string, args ...string) []byte {
		t.Helper()
		out := filepath.Join(dir, "dump.jsonl")
		run("scorep-convert", append([]string{"-in", path, "-out", out}, args...)...)
		b, err := os.ReadFile(out)
		if err != nil {
			t.Fatal(err)
		}
		return b
	}
	want, err := os.ReadFile(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(dump(archivePath, "-parallel", "4"), want) {
		t.Error("the JSONL dump at -parallel 4 differs from the one at -parallel 1")
	}
	fiJSON, err := os.Stat(dumpPath)
	if err != nil {
		t.Fatal(err)
	}
	fiBin, err := os.Stat(archivePath)
	if err != nil {
		t.Fatal(err)
	}
	if fiBin.Size()*8 > fiJSON.Size() {
		t.Errorf("archive %d bytes vs JSONL %d bytes: compression below 8x", fiBin.Size(), fiJSON.Size())
	}

	// scorep-timeline and scorep-analyze both consume the archive.
	out = run("scorep-timeline", "-in", archivePath, "-width", "40")
	if !strings.Contains(out, "thread") {
		t.Errorf("timeline from archive failed:\n%s", out)
	}
	out = run("scorep-analyze", "-trace", archivePath)
	if !strings.Contains(out, "management/execution ratio") {
		t.Errorf("streaming analyze of archive failed:\n%s", out)
	}

	// Parallel out-of-core analysis is byte-identical to sequential:
	// the -json outputs at -parallel 1 and -parallel 4 must cmp equal,
	// and the parallel decode path renders the same timeline.
	seqJSON := runOut("scorep-analyze", "-trace", archivePath, "-json", "-parallel", "1")
	parJSON := runOut("scorep-analyze", "-trace", archivePath, "-json", "-parallel", "4")
	if seqJSON != parJSON {
		t.Errorf("parallel analysis JSON differs from sequential:\nseq: %s\npar: %s", seqJSON, parJSON)
	}
	if !strings.Contains(seqJSON, "ManagementRatio") {
		t.Errorf("-json analysis output malformed:\n%s", seqJSON)
	}
	// The bottleneck analysis is deterministic too, and rides the same
	// JSON envelope (its findings are surfaced at the top level).
	seqBN := runOut("scorep-analyze", "-trace", archivePath, "-bottlenecks", "-json", "-parallel", "1")
	parBN := runOut("scorep-analyze", "-trace", archivePath, "-bottlenecks", "-json", "-parallel", "4")
	if seqBN != parBN {
		t.Errorf("parallel bottleneck JSON differs from sequential:\nseq: %s\npar: %s", seqBN, parBN)
	}
	if !strings.Contains(seqBN, `"bottlenecks"`) || !strings.Contains(seqBN, "CriticalPath") ||
		!strings.Contains(seqBN, `"findings"`) {
		t.Errorf("-bottlenecks -json output malformed:\n%s", seqBN)
	}
	out = run("scorep-analyze", "-trace", archivePath, "-bottlenecks")
	if !strings.Contains(out, "critical path:") || !strings.Contains(out, "per-thread waits:") {
		t.Errorf("-bottlenecks text output malformed:\n%s", out)
	}
	seqTL := run("scorep-timeline", "-in", archivePath, "-width", "40", "-parallel", "1")
	parTL := run("scorep-timeline", "-in", archivePath, "-width", "40", "-parallel", "4")
	if seqTL != parTL {
		t.Error("timeline rendered from parallel decode differs from sequential")
	}

	// Experiment archive round trip: one scorep-bots run writes the
	// archive, every offline tool reads it back.
	expDir := filepath.Join(dir, "exp-fib")
	expJSON := filepath.Join(dir, "exp-live.json")
	out = run("scorep-bots", "-code", "fib", "-size", "tiny", "-threads", "2", "-exp", expDir, "-json", expJSON)
	if !strings.Contains(out, "wrote experiment "+expDir) {
		t.Errorf("scorep-bots did not report the experiment:\n%s", out)
	}
	// The archived profile is byte-identical to the live run's -json.
	liveJSON, err := os.ReadFile(expJSON)
	if err != nil {
		t.Fatal(err)
	}
	archivedJSON, err := os.ReadFile(filepath.Join(expDir, "profile.json"))
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(liveJSON, archivedJSON) {
		t.Error("experiment profile.json differs from the live report JSON")
	}
	out = run("scorep-report", "-exp", expDir)
	if !strings.Contains(out, "fib.task") {
		t.Errorf("report from experiment missing task construct:\n%s", out)
	}
	out = run("scorep-analyze", "-exp", expDir)
	if !strings.Contains(out, "management/execution ratio") || !strings.Contains(out, "config:") {
		t.Errorf("analyze of experiment incomplete:\n%s", out)
	}
	out = run("scorep-timeline", "-exp", expDir, "-width", "40")
	if !strings.Contains(out, "thread") {
		t.Errorf("timeline from experiment failed:\n%s", out)
	}
	out = run("scorep-convert", "-exp", expDir, "-stats")
	if !strings.Contains(out, "format=otf2") {
		t.Errorf("convert from experiment failed:\n%s", out)
	}

	// -stats reports the archive layout: version, index, chunk counts.
	out = run("scorep-convert", "-in", archivePath, "-stats")
	if !strings.Contains(out, "version=4") || !strings.Contains(out, "indexed=true") ||
		!strings.Contains(out, "thread-chunks=") {
		t.Errorf("-stats missing v4 layout fields:\n%s", out)
	}

	// An archive of an older format version is refused, with the commit
	// whose scorep-convert reads it.
	old, err := os.ReadFile(filepath.Join("internal", "otf2", "testdata", "v4.otf2"))
	if err != nil {
		t.Fatal(err)
	}
	old[len("SPOTF2\x00")] = 3
	oldPath := filepath.Join(dir, "v3.otf2")
	if err := os.WriteFile(oldPath, old, 0o644); err != nil {
		t.Fatal(err)
	}
	for _, args := range [][]string{{"scorep-convert", "-in", oldPath, "-stats"}, {"scorep-analyze", "-trace", oldPath}} {
		if b, err := exec.Command(bin[args[0]], args[1:]...).CombinedOutput(); err == nil || !strings.Contains(string(b), "a6f702c") {
			t.Errorf("%v on a version-3 header: %v\n%s", args, err, b)
		}
	}
	// A JSONL dump is no input: it is refused at the archive header, with
	// the commit whose scorep-convert turns it into an archive.
	for _, args := range [][]string{{"scorep-convert", "-in", dumpPath, "-stats"}, {"scorep-analyze", "-trace", dumpPath}} {
		if b, err := exec.Command(bin[args[0]], args[1:]...).CombinedOutput(); err == nil || !strings.Contains(string(b), "72ec01f") {
			t.Errorf("%v on a JSONL dump: %v\n%s", args, err, b)
		}
	}

	// Compressed archives shrink and decode identically.
	zPath := filepath.Join(dir, "fib-z.otf2")
	out = run("scorep-convert", "-in", archivePath, "-out", zPath, "-compress", "-stats")
	if !strings.Contains(out, "compression-ratio=") {
		t.Errorf("-stats missing compression ratio:\n%s", out)
	}
	fiZ, err := os.Stat(zPath)
	if err != nil {
		t.Fatal(err)
	}
	if fiZ.Size() >= fiBin.Size() {
		t.Errorf("compressed archive %d bytes >= uncompressed %d", fiZ.Size(), fiBin.Size())
	}
	if got := runOut("scorep-analyze", "-trace", zPath, "-json"); got != seqJSON {
		t.Errorf("compressed archive analysis differs:\n%s", got)
	}
	if !bytes.Equal(dump(zPath), want) {
		t.Error("the compressed archive dumps different JSONL")
	}

	// Query flags: an all-open window is a no-op, and analyzing a
	// thread-subset conversion equals analyzing the full archive with
	// the same -tids filter — byte-identical JSON, the filter-then-
	// analyze reference executed through two different tools.
	if got := runOut("scorep-analyze", "-trace", archivePath, "-json", "-window", ":"); got != seqJSON {
		t.Errorf("-window : (all-open) changed the analysis:\n%s", got)
	}
	t0Path := filepath.Join(dir, "fib-t0.otf2")
	run("scorep-convert", "-in", archivePath, "-out", t0Path, "-threads", "0")
	subsetJSON := runOut("scorep-analyze", "-trace", t0Path, "-json")
	tidsJSON := runOut("scorep-analyze", "-trace", archivePath, "-json", "-tids", "0")
	if subsetJSON != tidsJSON {
		t.Errorf("-tids 0 analysis differs from converted thread-0 subset:\nsubset: %s\ntids: %s", subsetJSON, tidsJSON)
	}
	if subsetJSON == seqJSON {
		t.Error("thread-0 subset analysis unexpectedly equals the full analysis")
	}
	// Windowed queries agree across worker counts, byte for byte.
	if w1, w4 := runOut("scorep-analyze", "-trace", archivePath, "-json", "-window", "0:", "-parallel", "1"),
		runOut("scorep-analyze", "-trace", archivePath, "-json", "-window", "0:", "-parallel", "4"); w1 != w4 {
		t.Errorf("windowed analysis differs across -parallel:\n1: %s\n4: %s", w1, w4)
	}
	out = run("scorep-timeline", "-in", archivePath, "-width", "40", "-tids", "0")
	if !strings.Contains(out, "thread") {
		t.Errorf("timeline with -tids failed:\n%s", out)
	}
	out = run("scorep-report", "-exp", expDir, "-window", ":")
	if !strings.Contains(out, "trace metrics") || !strings.Contains(out, "management/execution ratio") {
		t.Errorf("report -window missing trace metrics section:\n%s", out)
	}
	out = run("scorep-analyze", "-exp", expDir, "-window", ":")
	if !strings.Contains(out, "management/execution ratio") {
		t.Errorf("analyze -exp -window failed:\n%s", out)
	}

	// Ambiguous flag combinations are rejected, not silently resolved.
	mustFail := func(name string, args ...string) {
		t.Helper()
		if b, err := exec.Command(bin[name], args...).CombinedOutput(); err == nil {
			t.Errorf("%s %v should reject conflicting flags:\n%s", name, args, b)
		}
	}
	mustFail("scorep-bots", "-code", "fib", "-size", "tiny", "-uninstrumented", "-exp", expDir)
	mustFail("scorep-timeline", "-in", tracePath, "-exp", expDir)
	mustFail("scorep-analyze", "-in", repA, "-trace", tracePath)
	mustFail("scorep-convert", "-in", tracePath, "-exp", expDir, "-stats")
	mustFail("scorep-analyze", "-in", repA, "-bottlenecks")   // a report holds no trace
	mustFail("scorep-analyze", "-in", repA, "-parallel", "4") // -parallel is trace-analysis only
	mustFail("scorep-report", "-in", repA, "-parallel", "2")  // -parallel is -diff only
	// Query/compression flags apply to specific modes only.
	mustFail("scorep-analyze", "-in", repA, "-window", ":")                       // a report holds no trace
	mustFail("scorep-analyze", "-code", "fib", "-size", "tiny", "-tids", "0")     // live runs aren't sliceable
	mustFail("scorep-analyze", "-trace", archivePath, "-compress")                // -compress needs -save-trace
	mustFail("scorep-analyze", "-trace", archivePath, "-window", "junk")          // malformed window
	mustFail("scorep-timeline", "-code", "fib", "-size", "tiny", "-window", ":")  // live runs aren't sliceable
	mustFail("scorep-timeline", "-in", archivePath, "-compress")                  // -compress needs -save
	mustFail("scorep-convert", "-in", archivePath, "-out", dumpPath, "-compress") // JSONL can't compress
	mustFail("scorep-convert", "-in", archivePath, "-stats", "-window", ":")      // a sub-trace needs -out
	mustFail("scorep-report", "-in", repA, "-diff", repB, "-window", ":")         // diff has no trace section
	mustFail("scorep-report", "-exp", expDir, "-csv", "-window", ":")             // CSV has no trace section
	mustFail("scorep-report", "-in", repA, "-window", ":")                        // plain reports hold no trace
}
