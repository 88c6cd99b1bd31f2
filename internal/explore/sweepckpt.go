package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"

	"anonshm/internal/obs"
	"anonshm/internal/store"
)

// Sweep-level checkpointing. A wiring sweep (CheckSnapshotSafety,
// CheckSnapshotWaitFree) is many independent Run calls; its checkpoint
// directory layers on top of the per-run format:
//
//	<dir>/sweep.json — sweep identity (check, engine, symmetry, inputs),
//	                   the number of wirings fully explored, and the
//	                   accumulated SweepResult
//	<dir>/run        — a per-run checkpoint (store.WriteCheckpoint) of
//	                   the wiring in flight, removed when it completes
//
// sweep.json is rewritten (atomically) after every completed wiring; a
// resume skips the completed wirings, re-enters the in-flight one
// through Options.Resume when <dir>/run exists, and continues
// accumulating into the restored totals. The per-run root fingerprint
// check makes a stale run directory impossible to attach to the wrong
// wiring.

// sweepMetaVersion versions sweep.json alongside store.MetaVersion.
const sweepMetaVersion = 1

// sweepCheckpoint is the sweep.json document.
type sweepCheckpoint struct {
	Version    int         `json:"version"`
	Check      string      `json:"check"`
	Engine     string      `json:"engine"`
	Symmetry   string      `json:"symmetry"`
	Inputs     []string    `json:"inputs"`
	Nondet     bool        `json:"nondet"`
	MaxCrashes int         `json:"maxCrashes"`
	Completed  int         `json:"completed"`
	Sweep      SweepResult `json:"sweep"`
}

func sweepMetaPath(dir string) string { return filepath.Join(dir, "sweep.json") }

// sweepRunDir is the per-run checkpoint directory inside a sweep
// checkpoint.
func sweepRunDir(dir string) string { return filepath.Join(dir, "run") }

// sweepID builds the identity half of a sweep checkpoint.
func (c SnapshotConfig) sweepID(check string) sweepCheckpoint {
	return sweepCheckpoint{
		Version:    sweepMetaVersion,
		Check:      check,
		Engine:     c.Engine.String(),
		Symmetry:   c.Symmetry.Canonicalizer().String(),
		Inputs:     c.Inputs,
		Nondet:     c.Nondet,
		MaxCrashes: c.MaxCrashes,
	}
}

// loadSweepCheckpoint reads and validates <c.Resume>/sweep.json.
func loadSweepCheckpoint(c SnapshotConfig, check string) (*sweepCheckpoint, error) {
	blob, err := os.ReadFile(sweepMetaPath(c.Resume))
	if err != nil {
		return nil, fmt.Errorf("explore: resume: %w", err)
	}
	var sc sweepCheckpoint
	if err := json.Unmarshal(blob, &sc); err != nil {
		return nil, fmt.Errorf("explore: resume: %s: %w", sweepMetaPath(c.Resume), err)
	}
	if sc.Version != sweepMetaVersion {
		return nil, fmt.Errorf("explore: resume: sweep checkpoint has version %d; this build reads version %d", sc.Version, sweepMetaVersion)
	}
	id := c.sweepID(check)
	mismatch := func(field, ck, req string) error {
		return &CheckpointMismatchError{Field: field, Checkpoint: ck, Requested: req}
	}
	switch {
	case sc.Check != id.Check:
		return nil, mismatch("check", sc.Check, id.Check)
	case sc.Engine != id.Engine:
		return nil, mismatch("engine", sc.Engine, id.Engine)
	case sc.Symmetry != id.Symmetry:
		return nil, mismatch("symmetry", sc.Symmetry, id.Symmetry)
	case fmt.Sprint(sc.Inputs) != fmt.Sprint(id.Inputs):
		return nil, mismatch("inputs", fmt.Sprint(sc.Inputs), fmt.Sprint(id.Inputs))
	case sc.Nondet != id.Nondet:
		return nil, mismatch("nondet", fmt.Sprint(sc.Nondet), fmt.Sprint(id.Nondet))
	case sc.MaxCrashes != id.MaxCrashes:
		return nil, mismatch("maxCrashes", fmt.Sprint(sc.MaxCrashes), fmt.Sprint(id.MaxCrashes))
	}
	return &sc, nil
}

// writeSweepCheckpoint atomically rewrites <dir>/sweep.json — through
// the shared fsync+rename helper, so a kill mid-rewrite cannot leave a
// torn sweep.json that would poison the next resume.
func writeSweepCheckpoint(dir string, sc sweepCheckpoint) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	blob, err := json.MarshalIndent(sc, "", "  ")
	if err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	if err := obs.WriteFileAtomic(sweepMetaPath(dir), append(blob, '\n'), 0o644); err != nil {
		return fmt.Errorf("explore: sweep checkpoint: %w", err)
	}
	return nil
}

// runSweep drives body over every wiring assignment, layering sweep
// checkpointing (c.Checkpoint) and resume (c.Resume) around the per-run
// engine support. body receives fully-assembled per-run Options and must
// call Run with them.
func (c SnapshotConfig) runSweep(check string, sweep *SweepResult, body func(perms [][]int, opts Options) (Result, error)) error {
	sweepSpan := c.Trace.StartArgs("sweep", "sweep "+check,
		map[string]any{"check": check, "engine": c.Engine.String(),
			"symmetry": c.Symmetry.Canonicalizer().String()})
	defer sweepSpan.End()
	var resume *sweepCheckpoint
	if c.Resume != "" {
		sc, err := loadSweepCheckpoint(c, check)
		if err != nil {
			return err
		}
		resume = sc
		*sweep = sc.Sweep
	} else if c.Checkpoint != "" {
		// Seed sweep.json before the first wiring so a cancel at any
		// point — even inside wiring 0 — leaves a resumable directory.
		if err := writeSweepCheckpoint(c.Checkpoint, c.sweepID(check)); err != nil {
			return err
		}
	}
	idx := 0
	n := len(c.Inputs)
	return forEachWiring(n, registersFor(c), WiringOptions{Filter: c.Wirings}, func(perms [][]int) error {
		i := idx
		idx++
		if resume != nil && i < resume.Completed {
			return nil
		}
		opts := c.options()
		if c.Checkpoint != "" {
			opts.Checkpoint = sweepRunDir(c.Checkpoint)
			opts.CheckpointEvery = c.CheckpointEvery
		}
		if resume != nil && i == resume.Completed {
			// Re-enter the wiring that was in flight when the sweep
			// stopped, if its run checkpoint exists (the sweep may also
			// have stopped exactly between wirings).
			if _, err := store.LoadCheckpoint(sweepRunDir(c.Resume)); err == nil {
				opts.Resume = sweepRunDir(c.Resume)
			}
		}
		wsp := c.Trace.StartArgs("wiring", fmt.Sprintf("wiring %d", i),
			map[string]any{"wiring": i})
		res, err := body(perms, opts)
		wsp.End()
		sweep.accumulate(res)
		if err != nil {
			return err
		}
		if c.Checkpoint != "" {
			if err := os.RemoveAll(sweepRunDir(c.Checkpoint)); err != nil {
				return fmt.Errorf("explore: sweep checkpoint: %w", err)
			}
			sc := c.sweepID(check)
			sc.Completed = i + 1
			sc.Sweep = *sweep
			if err := writeSweepCheckpoint(c.Checkpoint, sc); err != nil {
				return err
			}
		}
		return nil
	})
}
