// Command scorep-convert rewrites a binary otf2-style archive as another
// archive or dumps it as JSONL text, picking the output's codec by file
// extension (".otf2" is an archive, anything else a JSONL dump, which no
// tool reads back). The input may also be an experiment archive
// directory (-exp), whose trace.otf2 is used. With -stats it reports
// size, event count and bytes/event for both sides — plus, for archives,
// the physical layout: format version, footer-index presence,
// per-thread chunk counts and the event-chunk compression ratio — the
// measurement behind the format's compression claim.
//
// Archive inputs and outputs are format version 4, the seekable indexed
// format; outputs take -compress (flate-compress each event chunk). An
// archive of versions 1 to 3 is refused: scorep-convert built at commit
// a6f702c converts it to version 4. A JSONL input is refused too:
// scorep-convert built at commit 72ec01f converts it to an archive.
// -window t0:t1 and -threads a,b,c convert only the matching sub-trace.
//
// Usage:
//
//	scorep-convert -in trace.otf2 -out trace.jsonl [-parallel 4]
//	scorep-convert -in trace.otf2 -out trace-z.otf2 -compress
//	scorep-convert -in trace.otf2 -out slice.otf2 -window 1000:2000 -threads 0,1
//	scorep-convert -exp scorep-run -out trace.jsonl
//	scorep-convert -in trace.otf2 -stats          (inspect only)
package main

import (
	"flag"
	"fmt"
	"os"
	"sort"

	scorep "repro"
	"repro/internal/cliq"
	"repro/internal/otf2"
	"repro/internal/region"
)

func main() {
	var (
		in       = flag.String("in", "", "input trace: a binary archive (.otf2)")
		expDir   = flag.String("exp", "", "input experiment directory (its trace.otf2 is converted)")
		out      = flag.String("out", "", "output trace: .otf2 = binary archive, otherwise a JSONL dump (optional with -stats)")
		stats    = flag.Bool("stats", false, "print size/event-count/bytes-per-event statistics (and archive layout)")
		parallel = flag.Int("parallel", 0, "archive decode workers (0 = one per processor; the loaded trace is identical at every count)")
		window   = flag.String("window", "", "convert only the inclusive time window t0:t1 (either bound may be empty)")
		threads  = flag.String("threads", "", "convert only a comma-separated thread-ID subset")
		compress = flag.Bool("compress", false, "flate-compress event chunks of an .otf2 output")
	)
	flag.Parse()

	if *in != "" && *expDir != "" {
		fmt.Fprintln(os.Stderr, "-in conflicts with -exp: pick one input")
		os.Exit(2)
	}
	outIsArchive := *out != "" && otf2.IsArchivePath(*out)
	if *compress && !outIsArchive {
		fmt.Fprintln(os.Stderr, "-compress only applies to an .otf2 output (-out <file>.otf2)")
		os.Exit(2)
	}
	if (*window != "" || *threads != "") && *out == "" {
		fmt.Fprintln(os.Stderr, "-window and -threads select a sub-trace to convert; they need -out")
		os.Exit(2)
	}
	query, err := cliq.Build(*window, *threads, "threads")
	if err != nil {
		fail(err)
	}
	if *in == "" && *expDir != "" {
		exp, err := scorep.OpenExperiment(*expDir)
		if err != nil {
			fail(err)
		}
		if !exp.Meta.HasTrace {
			fail(fmt.Errorf("%s: experiment holds no trace", *expDir))
		}
		*in = exp.TracePath()
	}
	if *in == "" || (*out == "" && !*stats) {
		fmt.Fprintln(os.Stderr, "need -in <trace> (or -exp <dir>) and -out <trace> (or -stats)")
		os.Exit(2)
	}

	if *out == "" {
		// Inspect only: count events streaming, in O(chunk) memory, so
		// archives larger than RAM can be sized up.
		events, warning, err := otf2.CountFileEvents(*in)
		if err != nil {
			fail(err)
		}
		warn(warning)
		printStats("in", *in, events, true)
		return
	}

	tr, _, warning, err := otf2.LoadFile(*in, region.NewRegistry(), query, *parallel)
	if err != nil {
		fail(err)
	}
	warn(warning)
	events := tr.NumEvents()
	if *stats {
		printStats("in", *in, events, true)
	}

	var wopts []otf2.WriterOption
	if *compress {
		wopts = append(wopts, otf2.WithCompression(otf2.CompressionFlate))
	}
	if err := otf2.WriteFile(*out, tr, wopts...); err != nil {
		fail(err)
	}
	if *stats {
		printStats("out", *out, events, outIsArchive)
		ratio(*in, *out)
	} else {
		fmt.Printf("wrote %s (%d events, %d threads)\n", *out, events, len(tr.Threads))
	}
}

// printStats reports a file's size and bytes/event, and an archive's
// layout; the input is always an archive, the output one by extension.
func printStats(label, path string, events int, archive bool) {
	fi, err := os.Stat(path)
	if err != nil {
		fail(err)
	}
	format := "jsonl"
	if archive {
		format = "otf2"
	}
	perEvent := 0.0
	if events > 0 {
		perEvent = float64(fi.Size()) / float64(events)
	}
	fmt.Printf("%-3s %s: format=%s size=%d bytes events=%d bytes/event=%.2f\n",
		label, path, format, fi.Size(), events, perEvent)
	if archive {
		printArchiveStats(label, path)
	}
}

// printArchiveStats reports an archive's physical layout: format
// version, index presence, compression effectiveness and per-thread
// chunk counts — the seekability material behind -window queries.
func printArchiveStats(label, path string) {
	st, err := otf2.StatFile(path)
	if err != nil {
		fail(err)
	}
	fmt.Printf("%-3s version=%d indexed=%v", label, st.FormatVersion, st.Indexed)
	if st.Indexed {
		ratio := 1.0
		if st.StoredEventBytes > 0 {
			ratio = float64(st.RawEventBytes) / float64(st.StoredEventBytes)
		}
		fmt.Printf(" chunks=%d compressed=%d compression-ratio=%.2fx indexed-events=%d",
			st.Chunks, st.CompressedChunks, ratio, st.IndexedEvents)
		tids := make([]int, 0, len(st.ThreadChunks))
		for tid := range st.ThreadChunks {
			tids = append(tids, tid)
		}
		sort.Ints(tids)
		fmt.Printf(" thread-chunks=")
		for i, tid := range tids {
			if i > 0 {
				fmt.Printf(",")
			}
			fmt.Printf("%d:%d", tid, st.ThreadChunks[tid])
		}
	}
	if fi := st.Flight; fi != nil {
		fmt.Printf(" flight-recorder=ring:%dx%d retained-events=%d dropped-events=%d dropped-chunks=%d",
			fi.RingChunks, fi.ChunkEvents, fi.RetainedEvents, fi.DroppedEvents, fi.DroppedChunks)
		if !st.Indexed {
			warn(fmt.Sprintf("%s: flight-recorder dump has no footer index (partial dump?); events readable up to the truncation point", path))
		}
	}
	fmt.Println()
}

func ratio(in, out string) {
	fi, err := os.Stat(in)
	if err != nil {
		fail(err)
	}
	fo, err := os.Stat(out)
	if err != nil {
		fail(err)
	}
	if fo.Size() > 0 {
		fmt.Printf("size ratio in/out: %.2fx\n", float64(fi.Size())/float64(fo.Size()))
	}
}

func warn(msg string) {
	if msg != "" {
		fmt.Fprintf(os.Stderr, "warning: %s\n", msg)
	}
}

func fail(err error) {
	fmt.Fprintf(os.Stderr, "%v\n", err)
	os.Exit(1)
}
