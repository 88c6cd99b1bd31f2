package explore

import (
	"fmt"
	"runtime"
	"time"

	"anonshm/internal/canon"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// Engine selects the search backend used by Run. Both engines share the
// state, fingerprint, option and storage model; they differ in visit
// order, memory profile and parallelism.
type Engine uint8

const (
	// DFSEngine (the zero value) is the serial depth-first engine:
	// smallest memory footprint (only the current path's systems stay
	// alive), reaches terminal states early, and detects cycles inline
	// (Result.Cycle).
	DFSEngine Engine = iota
	// ParallelEngine is the work-stealing parallel breadth-first engine:
	// the frontier is sharded across Options.Workers goroutines and the
	// visited set is a sharded lock-free-read fingerprint table, so
	// throughput scales with cores. Invariant violations cancel all
	// workers and still carry a counterexample trace. With Workers: 1 it
	// is a serial breadth-first search: exact BFS depths and shortest
	// counterexample traces.
	ParallelEngine
)

// String implements fmt.Stringer.
func (e Engine) String() string {
	switch e {
	case DFSEngine:
		return "dfs"
	case ParallelEngine:
		return "parallel"
	default:
		return fmt.Sprintf("Engine(%d)", uint8(e))
	}
}

// ParseEngine converts a command-line engine name to an Engine; "" is
// the zero value, DFSEngine.
func ParseEngine(s string) (Engine, error) {
	switch s {
	case "", "dfs":
		return DFSEngine, nil
	case "parallel", "par":
		return ParallelEngine, nil
	default:
		return DFSEngine, fmt.Errorf("explore: unknown engine %q (want dfs or parallel)", s)
	}
}

// Set implements flag.Value, so cmd binaries can register an Engine
// directly with flag.Var instead of hand-rolling ParseEngine plumbing.
func (e *Engine) Set(s string) error {
	v, err := ParseEngine(s)
	if err != nil {
		return err
	}
	*e = v
	return nil
}

// UnsupportedOptionError reports an Options feature the selected engine
// or storage tier cannot provide. Exactly one of Engine/Store identifies
// the rejecting side: Store is non-empty ("mem", "disk") when the
// storage tier, not the engine, is what cannot honor the option.
type UnsupportedOptionError struct {
	Engine Engine
	Store  string
	Option string
	Hint   string
}

// Error implements error.
func (e *UnsupportedOptionError) Error() string {
	var msg string
	if e.Store != "" {
		msg = fmt.Sprintf("explore: store %s does not support %s", e.Store, e.Option)
	} else {
		msg = fmt.Sprintf("explore: engine %s does not support %s", e.Engine, e.Option)
	}
	if e.Hint != "" {
		msg += " (" + e.Hint + ")"
	}
	return msg
}

// Workers resolves a requested worker count for e: DFSEngine always
// runs one worker; ParallelEngine runs n, or GOMAXPROCS when n is 0,
// capped at the packed node id's worker limit.
func (e Engine) Workers(n int) int {
	if e != ParallelEngine {
		return 1
	}
	if n <= 0 {
		n = runtime.GOMAXPROCS(0)
	}
	return min(n, maxParallelWorkers)
}

// Run is the single entry point for exhaustive exploration: it validates
// opts against the selected engine and storage tier, binds the store
// (visited set, frontier factory, checkpoint trigger), dispatches, and
// fills Result.Stats.
func Run(init *machine.System, opts Options) (Result, error) {
	engine := opts.Engine
	if engine != DFSEngine && engine != ParallelEngine {
		return Result{}, fmt.Errorf("explore: unknown engine %v", engine)
	}
	if err := validateOptions(engine, &opts); err != nil {
		return Result{}, err
	}
	if opts.MaxStates <= 0 {
		opts.MaxStates = DefaultMaxStates
	}
	canonicalizer := opts.Canonicalizer
	if canonicalizer == nil {
		canonicalizer = canon.Identity{}
	}
	hasher, err := canonicalizer.Bind(init)
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	opts.hasher = hasher

	// Resolve the worker count up front: the store splits its frontier
	// memory budget per worker, and node ids pack the worker index.
	nw := engine.Workers(opts.Workers)
	opts.Workers = nw

	// The checkpoint identity: which run a checkpoint belongs to. The
	// root fingerprint pins the system and its canonicalization.
	var initFP string
	if opts.Checkpoint != "" || opts.Resume != "" {
		initFP = fmt.Sprintf("%016x", hasher.Fingerprint(init.Clone(), opts.InitAux))
	}
	if opts.Resume != "" {
		sp := opts.Trace.Start("checkpoint.resume", "load checkpoint")
		ck, err := store.LoadCheckpoint(opts.Resume)
		sp.End()
		if err != nil {
			return Result{}, fmt.Errorf("explore: %w", err)
		}
		if err := validateResume(ck, engine, canonicalizer.String(), initFP, opts.MaxCrashes); err != nil {
			return Result{}, err
		}
		opts.resume = ck
	}

	st, err := store.Open(store.Config{
		Kind:     opts.Store,
		Dir:      opts.StoreDir,
		MemLimit: opts.MemLimit,
		Root:     init,
		Workers:  nw,
		Trace:    opts.Trace,
	})
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	defer st.Close()
	visited, err := st.NewVisited(engine == ParallelEngine)
	if err != nil {
		return Result{}, fmt.Errorf("explore: %w", err)
	}
	defer visited.Close()
	if opts.resume != nil {
		sp := opts.Trace.Start("checkpoint.resume", "load visited set")
		err := opts.resume.LoadVisited(visited)
		sp.End()
		if err != nil {
			return Result{}, fmt.Errorf("explore: resume: %w", err)
		}
	}
	opts.st = st
	opts.visited = visited
	if opts.Checkpoint != "" {
		every := opts.CheckpointEvery
		if every <= 0 {
			every = DefaultCheckpointEvery
		}
		opts.ckpt = &ckptState{
			dir:   opts.Checkpoint,
			every: int64(every),
			st:    st,
			meta: store.Meta{
				Engine:     engine.String(),
				Symmetry:   canonicalizer.String(),
				InitFP:     initFP,
				MaxCrashes: opts.MaxCrashes,
			},
		}
		if opts.resume != nil {
			opts.ckpt.last = opts.resume.Meta.States
		}
	}
	if opts.ckpt != nil {
		opts.ckpt.tr = opts.Trace
	}

	opts = hookObsProgress(opts)
	wd := startWatchdog(&opts)
	defer wd.stop()
	emitEngineStart(opts.Events, engine, opts.Workers)
	runSpan := opts.Trace.StartArgs("run", "engine "+engine.String(),
		map[string]any{"engine": engine.String(), "workers": opts.Workers})
	defer runSpan.End()

	//lint:ignore anonlint/determinism wall time feeds only Stats (throughput reporting), never fingerprints, traces or state counts
	start := time.Now()
	var res Result
	if engine == ParallelEngine {
		res, err = runParallel(init, opts)
	} else {
		res, err = runDFS(init, opts)
	}
	err = wd.stallError(err)
	res.Stats.Engine = engine
	if res.Stats.Workers == 0 {
		res.Stats.Workers = 1
	}
	res.Stats.Symmetry = canonicalizer.String()
	res.Stats.GroupSize = hasher.GroupSize()
	res.Stats.Store = st.Snapshot()
	res.Stats.StoreKind = st.Kind().String()
	res.Stats.finalize(time.Since(start), res.States)
	publishStats(opts.Obs, res)
	emitEngineFinish(opts.Events, res, err)
	return res, err
}
