package anonshm

// One benchmark per paper artifact (see DESIGN.md's experiment index):
//
//	E1  BenchmarkFigure2Replay          — the Figure 2 execution
//	E2  BenchmarkStableViewDAG          — Theorem 4.8 stabilization + graph
//	E3  BenchmarkExploreSnapshotSafety  — exhaustive N=2 safety (TLC stand-in)
//	E4  BenchmarkExploreWaitFree        — exhaustive N=2 wait-freedom
//	E5  BenchmarkAtomicityWitnessSearch — exhaustive N=2 atomicity proof
//	E6  BenchmarkRenaming               — Figure 4 across N
//	E7  BenchmarkConsensusSolo/Contended— Figure 5
//	E8  BenchmarkLowerBound             — Section 2.1 construction
//	E11 BenchmarkDoubleCollectBaseline  — the failing baseline under Figure 2
//	E12 BenchmarkSnapshot*              — Figure 3 step/wall cost vs N and scheduler
//
// Step counts are reported as "steps/op" so the complexity shape (solo
// Θ(N³), see EXPERIMENTS.md) is visible alongside wall-clock time.

import (
	"fmt"
	"math/rand"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/baseline"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/explore"
	"anonshm/internal/lowerbound"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/runtime"
	"anonshm/internal/sched"
	"anonshm/internal/stableview"
	"anonshm/internal/view"
)

func inputsN(n int) []string {
	inputs := make([]string, n)
	for i := range inputs {
		inputs[i] = fmt.Sprintf("v%d", i)
	}
	return inputs
}

// BenchmarkFigure2Replay replays the 13 macro-rows of Figure 2 (E1).
func BenchmarkFigure2Replay(b *testing.B) {
	prefix, cycle := stableview.Figure2Prefix(), stableview.Figure2Cycle()
	for i := 0; i < b.N; i++ {
		sys, _, err := stableview.Figure2System()
		if err != nil {
			b.Fatal(err)
		}
		for _, st := range prefix {
			if _, err := sys.Step(st.Proc, st.Choice); err != nil {
				b.Fatal(err)
			}
		}
		for _, st := range cycle {
			if _, err := sys.Step(st.Proc, st.Choice); err != nil {
				b.Fatal(err)
			}
		}
	}
	b.ReportMetric(float64(len(prefix)+len(cycle)), "steps/op")
}

// BenchmarkStableViewDAG stabilizes a random write-scan system and builds
// the stable-view graph (E2).
func BenchmarkStableViewDAG(b *testing.B) {
	for _, n := range []int{3, 5, 7} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				rng := rand.New(rand.NewSource(int64(i)))
				sys, _, err := core.NewWriteScanSystem(core.Config{
					Inputs:  inputsN(n),
					Wirings: anonmem.RandomWirings(rng, n, n),
				})
				if err != nil {
					b.Fatal(err)
				}
				live := make([]int, n)
				for p := range live {
					live[p] = p
				}
				res, err := stableview.RunToStability(sys, live, 5_000_000)
				if err != nil {
					b.Fatal(err)
				}
				g := stableview.BuildGraph(res)
				if _, ok := g.UniqueSource(); !ok {
					b.Fatal("Theorem 4.8 violated")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkExploreSnapshotSafety measures the exhaustive N=2 safety check
// (E3): the TLC-replacement throughput.
func BenchmarkExploreSnapshotSafety(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		sweep, err := explore.CheckSnapshotSafety(explore.SnapshotConfig{
			Inputs: []string{"a", "b"}, Nondet: true, Wirings: explore.FilterProc0,
		})
		if err != nil {
			b.Fatal(err)
		}
		states = sweep.TotalStates
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkExploreWaitFree measures the exhaustive N=2 wait-freedom check
// (E4).
func BenchmarkExploreWaitFree(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if _, err := explore.CheckSnapshotWaitFree(explore.SnapshotConfig{
			Inputs: []string{"a", "b"}, Nondet: true, Wirings: explore.FilterProc0,
		}); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkExploreCrash measures the crash-augmented N=2 wait-freedom
// check: a crash budget of N−1 plus the solo-termination invariant at
// every reachable state.
func BenchmarkExploreCrash(b *testing.B) {
	var states int
	for i := 0; i < b.N; i++ {
		sweep, err := explore.CheckSnapshotWaitFree(explore.SnapshotConfig{
			Inputs: []string{"a", "b"}, Nondet: true, Wirings: explore.FilterProc0, MaxCrashes: 1,
		})
		if err != nil {
			b.Fatal(err)
		}
		states = sweep.TotalStates
	}
	b.ReportMetric(float64(states), "states/op")
}

// BenchmarkAtomicityWitnessSearch measures the exhaustive N=2 atomicity
// proof (E5): no witness exists at N=2.
func BenchmarkAtomicityWitnessSearch(b *testing.B) {
	for i := 0; i < b.N; i++ {
		r, err := explore.FindNonAtomicityWitness(explore.SnapshotConfig{
			Inputs: []string{"a", "b"}, Wirings: explore.FilterProc0,
		})
		if err != nil {
			b.Fatal(err)
		}
		if r.Found || !r.Exhaustive {
			b.Fatal("unexpected witness result at N=2")
		}
	}
}

func benchSched(name string, n int) sched.Scheduler {
	switch name {
	case "solo":
		return sched.NewSolo(n)
	case "rr":
		return &sched.RoundRobin{}
	case "coverer":
		return &sched.Coverer{}
	default:
		return sched.NewRandom(1)
	}
}

// BenchmarkSnapshotSimulated measures step counts and wall time of the
// Figure 3 algorithm under different schedulers and sizes (E12).
func BenchmarkSnapshotSimulated(b *testing.B) {
	for _, schedName := range []string{"solo", "rr", "coverer", "random"} {
		for _, n := range []int{2, 4, 8, 16} {
			b.Run(fmt.Sprintf("%s/n=%d", schedName, n), func(b *testing.B) {
				steps := 0
				for i := 0; i < b.N; i++ {
					sys, _, err := core.NewSnapshotSystem(core.Config{
						Inputs:  inputsN(n),
						Wirings: anonmem.RotationWirings(n, n),
					})
					if err != nil {
						b.Fatal(err)
					}
					res, err := sched.Run(sys, benchSched(schedName, n), 100_000_000, nil)
					if err != nil {
						b.Fatal(err)
					}
					if res.Reason != sched.StopAllDone {
						b.Fatal("did not terminate")
					}
					steps += res.Steps
				}
				b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
			})
		}
	}
}

// BenchmarkSnapshotConcurrent measures the goroutine runtime (E12).
func BenchmarkSnapshotConcurrent(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			in := view.NewInterner()
			ids := make([]view.ID, n)
			for i := 0; i < n; i++ {
				ids[i] = in.Intern(fmt.Sprintf("v%d", i))
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				machines := make([]machine.Machine, n)
				for p := 0; p < n; p++ {
					machines[p] = core.NewSnapshot(n, n, ids[p], false)
				}
				outcome, err := runtime.Run(runtime.Config{
					Registers: n,
					Initial:   core.EmptyCell,
					Seed:      int64(i),
				}, machines)
				if err != nil {
					b.Fatal(err)
				}
				for p := 0; p < n; p++ {
					if !outcome.Done[p] {
						b.Fatal("processor did not terminate")
					}
				}
			}
		})
	}
}

// BenchmarkSnapshotPublicAPI measures the end-to-end public entry point.
func BenchmarkSnapshotPublicAPI(b *testing.B) {
	inputs := inputsN(8)
	for i := 0; i < b.N; i++ {
		if _, err := Snapshot(inputs, WithSeed(int64(i))); err != nil {
			b.Fatal(err)
		}
	}
}

// BenchmarkLongLivedSnapshot measures repeated invocations of the
// Section 7 long-lived snapshot.
func BenchmarkLongLivedSnapshot(b *testing.B) {
	const n = 4
	sys, in, err := core.NewSnapshotSystem(core.Config{Inputs: inputsN(n)})
	if err != nil {
		b.Fatal(err)
	}
	if _, err := sched.Run(sys, &sched.RoundRobin{}, 100_000_000, nil); err != nil {
		b.Fatal(err)
	}
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for p, m := range sys.Procs {
			m.(*core.Snapshot).Invoke(in.Intern(fmt.Sprintf("r%d-%d", i, p)))
		}
		res, err := sched.Run(sys, &sched.RoundRobin{}, 100_000_000, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			b.Fatal("invocation did not complete")
		}
	}
}

// BenchmarkRenaming measures Figure 4 end to end (E6).
func BenchmarkRenaming(b *testing.B) {
	for _, n := range []int{2, 4, 8, 16} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				sys, _, err := renaming.NewSystem(renaming.Config{
					Inputs:  inputsN(n),
					Wirings: anonmem.RotationWirings(n, n),
				})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sched.Run(sys, &sched.RoundRobin{}, 100_000_000, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Reason != sched.StopAllDone {
					b.Fatal("did not terminate")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkConsensusSolo measures the obstruction-free fast path of
// Figure 5: one processor running alone (E7).
func BenchmarkConsensusSolo(b *testing.B) {
	for _, n := range []int{2, 4, 8} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			steps := 0
			for i := 0; i < b.N; i++ {
				sys, _, err := consensus.NewSystem(consensus.Config{Inputs: inputsN(n)})
				if err != nil {
					b.Fatal(err)
				}
				res, err := sched.Run(sys, sched.NewSolo(n), 100_000_000, nil)
				if err != nil {
					b.Fatal(err)
				}
				if res.Reason != sched.StopAllDone {
					b.Fatal("did not decide")
				}
				steps += res.Steps
			}
			b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
		})
	}
}

// BenchmarkConsensusContended measures Figure 5 under a contended prefix
// followed by solo completion (E7).
func BenchmarkConsensusContended(b *testing.B) {
	const n = 4
	steps := 0
	for i := 0; i < b.N; i++ {
		rng := rand.New(rand.NewSource(int64(i)))
		sys, _, err := consensus.NewSystem(consensus.Config{
			Inputs:  inputsN(n),
			Wirings: anonmem.RandomWirings(rng, n, n),
		})
		if err != nil {
			b.Fatal(err)
		}
		q := &sched.Seq{Phases: []sched.Phase{
			{S: &sched.Random{Rng: rng}, Steps: 500},
			{S: sched.NewSolo(n), Steps: -1},
		}}
		res, err := sched.Run(sys, q, 100_000_000, nil)
		if err != nil {
			b.Fatal(err)
		}
		if res.Reason != sched.StopAllDone {
			b.Fatal("did not decide")
		}
		steps += res.Steps
	}
	b.ReportMetric(float64(steps)/float64(b.N), "steps/op")
}

// BenchmarkLowerBound measures the Section 2.1 construction (E8).
func BenchmarkLowerBound(b *testing.B) {
	for _, n := range []int{3, 6} {
		b.Run(fmt.Sprintf("n=%d", n), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				demo, err := lowerbound.Run(n)
				if err != nil {
					b.Fatal(err)
				}
				if !demo.Indistinguishable || !demo.TaskViolated {
					b.Fatal("construction failed")
				}
			}
		})
	}
}

// BenchmarkDoubleCollectBaseline measures the failing baseline under the
// Figure 2 churn (E11).
func BenchmarkDoubleCollectBaseline(b *testing.B) {
	for i := 0; i < b.N; i++ {
		outs, _, err := baseline.Figure2DoubleCollectDemo(60)
		if err != nil {
			b.Fatal(err)
		}
		if outs[0].ComparableWith(outs[1]) {
			b.Fatal("pathology not reproduced")
		}
	}
}

// BenchmarkViewOps measures the bitset-view substrate.
func BenchmarkViewOps(b *testing.B) {
	a := view.Of(1, 5, 9, 63, 64, 120)
	c := view.Of(2, 5, 64, 119)
	b.Run("union", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Union(c)
		}
	})
	b.Run("subset", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.SubsetOf(c)
		}
	})
	b.Run("key", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = a.Key()
		}
	})
}

// BenchmarkExploreThroughput measures raw explorer speed (states/sec) on a
// fixed configuration, the budget currency of every exhaustive claim.
func BenchmarkExploreThroughput(b *testing.B) {
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Nondet: true})
	if err != nil {
		b.Fatal(err)
	}
	var states int
	for i := 0; i < b.N; i++ {
		res, err := explore.Run(sys.Clone(), explore.Options{Engine: explore.DFSEngine})
		if err != nil {
			b.Fatal(err)
		}
		states = res.States
	}
	b.ReportMetric(float64(states), "states/op")
}

// exploreBenchCase builds the serial-vs-parallel benchmark workload: a
// 3-processor snapshot system cut to an untruncated ~135k-state subspace
// by a depth-independent prune (views only grow), so every engine
// explores exactly the same states and the states/sec metrics compare
// like for like.
func exploreBenchCase(b *testing.B) (*machine.System, explore.Options) {
	b.Helper()
	sys, _, err := core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}})
	if err != nil {
		b.Fatal(err)
	}
	prune := func(n explore.Node) bool {
		for _, m := range n.Sys.Procs {
			if v, ok := m.(core.Viewer); ok && v.View().Len() >= 2 {
				return true
			}
		}
		return false
	}
	return sys, explore.Options{Prune: prune}
}

func runExploreBench(b *testing.B, sys *machine.System, opts explore.Options) {
	b.Helper()
	var states int64
	for i := 0; i < b.N; i++ {
		res, err := explore.Run(sys.Clone(), opts)
		if err != nil {
			b.Fatal(err)
		}
		if res.Truncated {
			b.Fatal("benchmark space truncated")
		}
		states += int64(res.States)
	}
	if secs := b.Elapsed().Seconds(); secs > 0 {
		b.ReportMetric(float64(states)/secs, "states/sec")
	}
	b.ReportMetric(float64(states)/float64(b.N), "states/op")
}

// BenchmarkExploreSerial is the single-threaded reference for the
// parallel engine: DFSEngine on the 3-processor snapshot subspace.
// (BenchmarkExploreParallel/workers=1 is the serial breadth-first
// search.)
func BenchmarkExploreSerial(b *testing.B) {
	sys, opts := exploreBenchCase(b)
	opts.Engine = explore.DFSEngine
	runExploreBench(b, sys, opts)
}

// BenchmarkExploreParallel measures ParallelEngine on the identical
// 3-processor snapshot subspace at several worker counts; compare
// states/sec against BenchmarkExploreSerial.
func BenchmarkExploreParallel(b *testing.B) {
	for _, workers := range []int{1, 2, 4} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			sys, opts := exploreBenchCase(b)
			opts.Engine = explore.ParallelEngine
			opts.Workers = workers
			runExploreBench(b, sys, opts)
		})
	}
}
