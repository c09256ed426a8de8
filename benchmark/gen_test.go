package main

import (
	"bytes"
	"testing"

	"repro/internal/analyze"
	"repro/internal/bottleneck"
	"repro/internal/otf2"
	"repro/internal/region"
	"repro/internal/trace"
)

func genArchive(t *testing.T, cfg genConfig) ([]byte, *trace.Trace, genStats) {
	t.Helper()
	tr, st := generateTrace(cfg, region.NewRegistry())
	var buf bytes.Buffer
	if err := otf2.Write(&buf, tr); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes(), tr, st
}

func TestGeneratorDeterministic(t *testing.T) {
	cfg := genConfig{Seed: 7, Threads: 4, Tasks: 3000, Phases: 15}
	a, _, _ := genArchive(t, cfg)
	b, _, _ := genArchive(t, cfg)
	if !bytes.Equal(a, b) {
		t.Fatal("same seed produced different archives")
	}
	cfg.Seed = 8
	c, _, _ := genArchive(t, cfg)
	if bytes.Equal(a, c) {
		t.Fatal("different seeds produced the same archive")
	}
}

// TestGeneratorAcceptedByAnalyses checks the schedule is one the
// analyses understand: ordered per-thread streams, balanced tasks, all
// three wait-state kinds, and the critical-path partition invariant.
func TestGeneratorAcceptedByAnalyses(t *testing.T) {
	for _, seed := range []int64{1, 2, 3} {
		cfg := genConfig{Seed: seed, Threads: 4, Tasks: 4000, Phases: 20}
		data, tr, st := genArchive(t, cfg)
		if st.Tasks != cfg.Tasks {
			t.Fatalf("seed %d: generated %d tasks, want %d", seed, st.Tasks, cfg.Tasks)
		}
		if st.Steals == 0 || st.TaskwaitBlocks == 0 || st.BarrierBlocks == 0 {
			t.Fatalf("seed %d: schedule lacks steals or waits: %+v", seed, st)
		}
		if len(tr.Threads) != cfg.Threads {
			t.Fatalf("seed %d: %d threads, want %d", seed, len(tr.Threads), cfg.Threads)
		}
		begins, ends := 0, 0
		for tid, evs := range tr.Threads {
			for i, ev := range evs {
				if i > 0 && ev.Time < evs[i-1].Time {
					t.Fatalf("seed %d thread %d: time runs backwards at event %d", seed, tid, i)
				}
				switch ev.Type {
				case trace.EvTaskBegin:
					begins++
				case trace.EvTaskEnd:
					ends++
				}
			}
		}
		if begins != cfg.Tasks || ends != cfg.Tasks {
			t.Fatalf("seed %d: %d begins, %d ends, want %d each", seed, begins, ends, cfg.Tasks)
		}

		ta := trace.Analyze(tr)
		if ta.TaskExecution.Count == 0 || ta.DispatchLatency.Count == 0 {
			t.Fatalf("seed %d: trace analysis saw no tasks: %+v", seed, ta)
		}
		fromArchive, err := otf2.Analyze(bytes.NewReader(data))
		if err != nil {
			t.Fatal(err)
		}
		if fromArchive.Switches != ta.Switches || fromArchive.TaskExecution != ta.TaskExecution {
			t.Fatalf("seed %d: archive analysis differs from in-memory analysis", seed)
		}

		ba := bottleneck.Analyze(tr)
		kinds := map[analyze.Kind]bool{}
		for _, ws := range ba.WaitStates {
			kinds[ws.Kind] = true
		}
		for _, k := range []analyze.Kind{analyze.LateTaskSpawn, analyze.StarvedThief, analyze.BarrierImbalance} {
			if !kinds[k] {
				t.Errorf("seed %d: no %v wait state", seed, k)
			}
		}
		if len(ba.Barriers) != cfg.Phases+1 {
			t.Errorf("seed %d: %d matched barriers, want %d", seed, len(ba.Barriers), cfg.Phases+1)
		}
		cp := ba.CriticalPath
		sum := cp.SpawnWait + cp.JoinWait + cp.Other
		for _, pr := range cp.Regions {
			sum += pr.Time
		}
		if cp.Length <= 0 || sum != cp.Length {
			t.Errorf("seed %d: critical path partition %d != length %d", seed, sum, cp.Length)
		}
	}
}
