// Benchmarks regenerating the paper's evaluation (one bench per table
// and figure, see DESIGN.md §5) plus ablations of the design decisions
// and microbenchmarks of the measurement primitives.
//
// The figure/table benches run each BOTS kernel instrumented and
// uninstrumented as sub-benchmarks; comparing the two sub-benchmark
// times per code/thread-count reproduces the paper's overhead bars.
// `go run ./cmd/scorep-exp -all` prints the same data as ready tables.
package scorep_test

import (
	"fmt"
	"sync/atomic"
	"testing"

	scorep "repro"
	"repro/internal/bots"
	"repro/internal/clock"
	"repro/internal/core"
	"repro/internal/exp"
	"repro/internal/measure"
	"repro/internal/omp"
	"repro/internal/region"
	"repro/internal/trace"
)

// benchSize keeps `go test -bench=.` affordable; the cmd/scorep-exp tool
// runs the full medium-size evaluation.
const benchSize = bots.SizeSmall

var benchThreads = []int{1, 4}

// benchListener wires one listener configuration: "uninst" (nil),
// "inst" (profiling), "inst+trace" (the profiling+tracing pair on one
// clock, as NewSession(WithTracing()) builds it — its recorder keeps
// every event, so use it only where the workload bounds the trace per
// iteration) or "inst+trace-stream" (the same pair streaming into a
// discarding sink: bounded memory at
// any b.N, for the open-loop micro benches). The finish func finalizes the
// configuration.
func benchListener(cfg string) (omp.Listener, func()) {
	switch cfg {
	case "uninst":
		return nil, func() {}
	case "inst":
		m := measure.New()
		return m, func() { m.Finish() }
	case "inst+trace", "inst+trace-stream":
		clk := clock.NewSystem()
		m := measure.NewWithClock(clk, region.Default)
		var sink trace.EventSink = discardEvents{}
		if cfg == "inst+trace" {
			sink = new(collectEvents)
		}
		rec := trace.NewStreamingRecorder(clk, sink, 0)
		return omp.Listeners{m, rec}, func() { m.Finish(); rec.Finish() }
	}
	panic("unknown bench listener config " + cfg)
}

// discardEvents is a zero-cost streaming sink for benchmarks.
type discardEvents struct{}

func (discardEvents) WriteEvents(int, []trace.Event) error { return nil }

// benchKernel runs one prepared kernel per iteration. It returns the
// last iteration's runtime so callers can report its TeamStats.
func benchKernel(b *testing.B, kernel bots.Kernel, cfg string, threads int) *omp.Runtime {
	b.Helper()
	var sink uint64
	var rt *omp.Runtime
	for i := 0; i < b.N; i++ {
		l, fin := benchListener(cfg)
		rt = omp.NewRuntime(l)
		sink += kernel(rt, threads)
		fin()
	}
	if sink == 0 {
		b.Fatal("kernel produced zero checksum")
	}
	return rt
}

// BenchmarkFig13OverheadCutoff: instrumented (profiling, and the
// profiling+tracing pair) vs. uninstrumented runtime of all nine codes
// in optimized (cut-off) form — the paper's Fig. 13.
func BenchmarkFig13OverheadCutoff(b *testing.B) {
	for _, spec := range bots.All {
		kernel := spec.Prepare(benchSize, spec.HasCutoff)
		for _, th := range benchThreads {
			for _, cfg := range []string{"uninst", "inst", "inst+trace"} {
				b.Run(fmt.Sprintf("%s/threads=%d/%s", spec.Name, th, cfg), func(b *testing.B) {
					benchKernel(b, kernel, cfg, th)
				})
			}
		}
	}
}

// BenchmarkFig14OverheadNoCutoff: the stress test — non-cut-off versions
// of the five cut-off codes (paper Fig. 14).
func BenchmarkFig14OverheadNoCutoff(b *testing.B) {
	for _, spec := range bots.CutoffCodes() {
		kernel := spec.Prepare(benchSize, false)
		for _, th := range benchThreads {
			for _, cfg := range []string{"uninst", "inst"} {
				b.Run(fmt.Sprintf("%s/threads=%d/%s", spec.Name, th, cfg), func(b *testing.B) {
					benchKernel(b, kernel, cfg, th)
				})
			}
		}
	}
}

// reportSchedulerContention attaches the scheduler-contention counters
// of the last region run by rt — steals, wasted steal synchronization,
// parks — as per-op custom metrics, so the ablation output shows *why*
// a configuration is slow, not just its ns/op.
func reportSchedulerContention(b *testing.B, rt *omp.Runtime) {
	b.Helper()
	st := rt.LastTeamStats()
	b.ReportMetric(float64(st.Steals), "steals/op")
	b.ReportMetric(float64(st.FailedSteals), "failed-steals/op")
	b.ReportMetric(float64(st.Parks), "parks/op")
	b.ReportMetric(float64(st.Wakes), "wakes/op")
}

// BenchmarkFig15RuntimeScaling: uninstrumented non-cut-off runtimes per
// thread count (paper Fig. 15: runtime grows with threads for ill-sized
// tasks). The contention metrics expose the central queue's management
// overhead growing with the thread count.
func BenchmarkFig15RuntimeScaling(b *testing.B) {
	for _, spec := range bots.CutoffCodes() {
		kernel := spec.Prepare(benchSize, false)
		for _, th := range []int{1, 2, 4, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", spec.Name, th), func(b *testing.B) {
				rt := benchKernel(b, kernel, "uninst", th)
				reportSchedulerContention(b, rt)
			})
		}
	}
}

// BenchmarkTable1TaskGranularity: instrumented runs whose merged task
// trees yield mean task time and task count (paper Table I). The
// per-iteration time is the instrumented kernel; the reported custom
// metrics are the Table I values.
func BenchmarkTable1TaskGranularity(b *testing.B) {
	for _, spec := range bots.CutoffCodes() {
		spec := spec
		b.Run(spec.Name, func(b *testing.B) {
			var rows []exp.Table1Row
			for i := 0; i < b.N; i++ {
				rows = exp.Table1TaskGranularity(exp.Config{Size: benchSize}, 4)
			}
			for _, r := range rows {
				if r.Code == spec.Name {
					b.ReportMetric(r.MeanTimeNs, "mean-task-ns")
					b.ReportMetric(float64(r.NumTasks), "tasks")
				}
			}
		})
	}
}

// BenchmarkTable2ConcurrentTasks reports the per-thread maximum of
// concurrently active task instances (paper Table II) as a custom
// metric per code/variant.
func BenchmarkTable2ConcurrentTasks(b *testing.B) {
	var rows []exp.Table2Row
	for i := 0; i < b.N; i++ {
		rows = exp.Table2ConcurrentTasks(exp.Config{Size: benchSize}, 4)
	}
	for _, r := range rows {
		name := r.Code
		if r.Cutoff {
			name += "-cutoff"
		}
		b.ReportMetric(float64(r.MaxTasks), name)
	}
}

// BenchmarkTable3NqueensRegions times the instrumented non-cut-off
// nqueens at each thread count; region exclusive times (paper Table III)
// are reported as custom metrics.
func BenchmarkTable3NqueensRegions(b *testing.B) {
	for _, th := range []int{1, 2, 4, 8} {
		th := th
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			var rows []exp.Table3Row
			for i := 0; i < b.N; i++ {
				rows = exp.Table3NQueensRegions(exp.Config{Size: benchSize, Threads: []int{th}})
			}
			r := rows[0]
			b.ReportMetric(float64(r.TaskNs), "task-ns")
			b.ReportMetric(float64(r.TaskwaitNs), "taskwait-ns")
			b.ReportMetric(float64(r.CreateNs), "create-ns")
			b.ReportMetric(float64(r.BarrierNs), "barrier-ns")
		})
	}
}

// BenchmarkTable4NqueensDepth runs the parameter-instrumented nqueens
// (paper Table IV); the depth distribution is validated in tests, the
// bench reports the cost of parameter instrumentation.
func BenchmarkTable4NqueensDepth(b *testing.B) {
	kernel := bots.NQueensDepthKernel(benchSize)
	plain := bots.NQueensSpec.Prepare(benchSize, false)
	b.Run("with-depth-param", func(b *testing.B) { benchKernel(b, kernel, "inst", 4) })
	b.Run("without-param", func(b *testing.B) { benchKernel(b, plain, "inst", 4) })
}

// BenchmarkCaseStudyNQueens: the Section VI outcome — cut-off vs. plain,
// uninstrumented.
func BenchmarkCaseStudyNQueens(b *testing.B) {
	b.Run("plain", func(b *testing.B) {
		benchKernel(b, bots.NQueensSpec.Prepare(benchSize, false), "uninst", 4)
	})
	b.Run("cutoff-depth3", func(b *testing.B) {
		benchKernel(b, bots.NQueensSpec.Prepare(benchSize, true), "uninst", 4)
	})
}

// ---------------------------------------------------------------------
// Ablations (DESIGN.md §7)
// ---------------------------------------------------------------------

// BenchmarkAblationSpinYield compares the task-draining barrier with and
// without cooperative yielding while idle.
func BenchmarkAblationSpinYield(b *testing.B) {
	kernel := bots.FibSpec.Prepare(bots.SizeSmall, true)
	for _, yield := range []bool{true, false} {
		b.Run(fmt.Sprintf("yield=%v", yield), func(b *testing.B) {
			var sink uint64
			for i := 0; i < b.N; i++ {
				rt := omp.NewRuntime(nil)
				rt.SpinYield = yield
				sink += kernel(rt, 4)
			}
			_ = sink
		})
	}
}

// BenchmarkAblationScheduler compares the central team queue (the
// libgomp model the paper measured, default) against work-stealing
// deques on the tiny-task fib workload — quantifying how much of the
// paper's Fig. 15 pathology is the queue design.
func BenchmarkAblationScheduler(b *testing.B) {
	kernel := bots.FibSpec.Prepare(bots.SizeSmall, false)
	for _, sched := range []omp.SchedulerKind{omp.SchedCentralQueue, omp.SchedWorkStealing} {
		for _, th := range []int{1, 8} {
			b.Run(fmt.Sprintf("%s/threads=%d", sched, th), func(b *testing.B) {
				var sink uint64
				rt := omp.NewRuntime(nil)
				rt.Sched = sched
				for i := 0; i < b.N; i++ {
					sink += kernel(rt, th)
				}
				_ = sink
				reportSchedulerContention(b, rt)
			})
		}
	}
}

// BenchmarkAblationNodePooling measures the effect of recycling
// task-instance tree nodes (Section V-B) on a task-heavy profile.
func BenchmarkAblationNodePooling(b *testing.B) {
	reg := region.NewRegistry()
	task := reg.Register("abl.task", "b.go", 1, region.Task)
	bar := reg.Register("abl.barrier", "b.go", 2, region.ImplicitBarrier)
	work := reg.Register("abl.work", "b.go", 3, region.UserFunction)
	for _, pooling := range []bool{true, false} {
		b.Run(fmt.Sprintf("pooling=%v", pooling), func(b *testing.B) {
			clk := clock.NewSystem()
			p := core.NewThreadProfile(0, clk)
			p.SetNodePooling(pooling)
			p.Enter(bar)
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				p.TaskBegin(task)
				p.Enter(work)
				p.Exit(work)
				p.TaskEndAt(clk.Now())
			}
		})
	}
}

// BenchmarkAblationClockCost isolates the share of the profiling
// overhead attributable to reading the clock: system clock (anchored
// and zero-value lazily anchored through the sync.Once path) vs. a
// counter-based fake clock. The raw-read sub-benches measure Now alone,
// outside the profiling engine.
func BenchmarkAblationClockCost(b *testing.B) {
	reg := region.NewRegistry()
	work := reg.Register("clk.work", "b.go", 1, region.UserFunction)
	run := func(b *testing.B, clk clock.Clock) {
		p := core.NewThreadProfile(0, clk)
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Enter(work)
			p.Exit(work)
		}
	}
	b.Run("system-clock", func(b *testing.B) { run(b, clock.NewSystem()) })
	b.Run("system-clock-zero-value", func(b *testing.B) { run(b, &clock.System{}) })
	b.Run("counter-clock", func(b *testing.B) {
		var c atomic.Int64
		run(b, clock.Func(func() int64 { return c.Add(1) }))
	})
	rawRead := func(b *testing.B, clk clock.Clock) {
		var sink int64
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			sink += clk.Now()
		}
		if sink < 0 {
			b.Fatal("clock went backwards")
		}
	}
	b.Run("raw-read", func(b *testing.B) { rawRead(b, clock.NewSystem()) })
	b.Run("raw-read-zero-value", func(b *testing.B) { rawRead(b, &clock.System{}) })
}

// BenchmarkAblationListenerNilCheck measures the uninstrumented event
// emission cost (the nil-listener branch), i.e. what an OPARI2-less
// binary pays in this design.
func BenchmarkAblationListenerNilCheck(b *testing.B) {
	reg := region.NewRegistry()
	par := reg.Register("nil.parallel", "b.go", 1, region.Parallel)
	task := reg.Register("nil.task", "b.go", 2, region.Task)
	tw := reg.Register("nil.taskwait", "b.go", 3, region.Taskwait)
	rt := omp.NewRuntime(nil)
	for i := 0; i < b.N; i++ {
		rt.Parallel(1, par, func(t *omp.Thread) {
			for j := 0; j < 100; j++ {
				t.NewTask(task, func(*omp.Thread) {})
			}
			t.Taskwait(tw)
		})
	}
}

// ---------------------------------------------------------------------
// Microbenchmarks of the measurement primitives
// ---------------------------------------------------------------------

// microConfigs maps the micro-bench sub-benchmark labels to
// benchListener configurations (streaming recorder: open benchmark
// loops must not grow an in-memory trace).
var microConfigs = []struct{ label, cfg string }{
	{"profile", "inst"},
	{"profile+trace", "inst+trace-stream"},
}

// BenchmarkEnterExit measures one instrumented region visit: in the
// profiling engine alone (core), and through the full runtime->listener
// per-event path for profiling and profiling+tracing.
func BenchmarkEnterExit(b *testing.B) {
	b.Run("core", func(b *testing.B) {
		reg := region.NewRegistry()
		work := reg.Register("micro.work", "b.go", 1, region.UserFunction)
		p := core.NewThreadProfile(0, clock.NewSystem())
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.Enter(work)
			p.Exit(work)
		}
	})
	par := region.MustRegister("micro.par", "b.go", 10, region.Parallel)
	work := region.MustRegister("micro.workrt", "b.go", 11, region.UserFunction)
	for _, mc := range microConfigs {
		b.Run(mc.label, func(b *testing.B) {
			b.ReportAllocs()
			l, fin := benchListener(mc.cfg)
			rt := omp.NewRuntime(l)
			rt.Parallel(1, par, func(t *omp.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.Enter(work)
					t.Exit(work)
				}
				b.StopTimer()
			})
			fin()
		})
	}
}

// BenchmarkTaskBeginEnd measures the full task-instance lifecycle: in
// the profiling engine alone (instance allocation, switch, stub
// accounting, merge), and through the runtime as an undeferred task
// (five events per op) for profiling and profiling+tracing.
func BenchmarkTaskBeginEnd(b *testing.B) {
	b.Run("core", func(b *testing.B) {
		reg := region.NewRegistry()
		task := reg.Register("micro.task", "b.go", 1, region.Task)
		bar := reg.Register("micro.barrier", "b.go", 2, region.ImplicitBarrier)
		clk := clock.NewSystem()
		p := core.NewThreadProfile(0, clk)
		p.Enter(bar)
		b.ReportAllocs()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			p.TaskBegin(task)
			p.TaskEndAt(clk.Now())
		}
	})
	par := region.MustRegister("micro.tpar", "b.go", 20, region.Parallel)
	task := region.MustRegister("micro.taskrt", "b.go", 21, region.Task)
	for _, mc := range microConfigs {
		b.Run(mc.label, func(b *testing.B) {
			b.ReportAllocs()
			l, fin := benchListener(mc.cfg)
			rt := omp.NewRuntime(l)
			rt.Parallel(1, par, func(t *omp.Thread) {
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					t.NewTask(task, func(*omp.Thread) {}, omp.If(false))
				}
				b.StopTimer()
			})
			fin()
		})
	}
}

// BenchmarkTaskSpawnThroughput measures raw runtime task throughput,
// uninstrumented, per thread count.
func BenchmarkTaskSpawnThroughput(b *testing.B) {
	reg := region.NewRegistry()
	par := reg.Register("thr.parallel", "b.go", 1, region.Parallel)
	task := reg.Register("thr.task", "b.go", 2, region.Task)
	for _, th := range []int{1, 4, 8} {
		b.Run(fmt.Sprintf("threads=%d", th), func(b *testing.B) {
			rt := omp.NewRuntime(nil)
			rt.Parallel(th, par, func(t *omp.Thread) {
				if t.ID != 0 {
					return
				}
				for i := 0; i < b.N; i++ {
					t.NewTask(task, func(*omp.Thread) {})
				}
			})
		})
	}
}

// BenchmarkParameterInt measures parameter-node creation (Table IV cost).
func BenchmarkParameterInt(b *testing.B) {
	reg := region.NewRegistry()
	task := reg.Register("param.task", "b.go", 1, region.Task)
	bar := reg.Register("param.barrier", "b.go", 2, region.ImplicitBarrier)
	clk := clock.NewSystem()
	p := core.NewThreadProfile(0, clk)
	p.Enter(bar)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		p.TaskBegin(task)
		p.ParameterInt("depth", int64(i%14))
		p.TaskEndAt(clk.Now())
	}
}

// BenchmarkAggregate measures cross-thread report aggregation on a
// realistic fib profile.
func BenchmarkAggregate(b *testing.B) {
	m := measure.New()
	rt := omp.NewRuntime(m)
	bots.FibSpec.Prepare(bots.SizeTiny, false)(rt, 4)
	m.Finish()
	locs := m.Locations()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if rep := scorep.AggregateReport(locs); rep.NumThreads != 4 {
			b.Fatal("bad aggregation")
		}
	}
}
