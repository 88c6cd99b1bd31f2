package explore

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"

	"anonshm/internal/obs"
	"anonshm/internal/store"
)

// Sweep-level checkpointing. A wiring sweep (CheckSnapshotSafety,
// CheckSnapshotWaitFree) is many independent Run calls; its checkpoint
// directory layers on top of the per-run format:
//
//	<dir>/sweep.json — the sweep's resolved Identity, the number of
//	                   wirings fully explored, and the accumulated
//	                   SweepResult
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
// Version 2 records the whole resolved Identity; version 1 recorded
// only part of it, so a version-1 file is refused rather than matched
// on the fields it happens to carry.
const sweepMetaVersion = 2

// sweepCheckpoint is the sweep.json document.
type sweepCheckpoint struct {
	Version   int         `json:"version"`
	Search    Identity    `json:"search"`
	Completed int         `json:"completed"`
	Sweep     SweepResult `json:"sweep"`
}

func sweepMetaPath(dir string) string { return filepath.Join(dir, "sweep.json") }

// sweepRunDir is the per-run checkpoint directory inside a sweep
// checkpoint.
func sweepRunDir(dir string) string { return filepath.Join(dir, "run") }

// loadSweepCheckpoint reads <dir>/sweep.json and checks that it records
// the identity id the resuming sweep requests.
func loadSweepCheckpoint(dir string, id Identity) (*sweepCheckpoint, error) {
	blob, err := os.ReadFile(sweepMetaPath(dir))
	if err != nil {
		return nil, fmt.Errorf("explore: resume: %w", err)
	}
	var sc sweepCheckpoint
	if err := json.Unmarshal(blob, &sc); err != nil {
		return nil, fmt.Errorf("explore: resume: %s: %w", sweepMetaPath(dir), err)
	}
	if sc.Version != sweepMetaVersion {
		return nil, fmt.Errorf("explore: resume: sweep checkpoint has version %d; this build reads version %d", sc.Version, sweepMetaVersion)
	}
	if err := identityMismatch(sc.Search, id); err != nil {
		return nil, err
	}
	return &sc, nil
}

// identityMismatch reports the first Identity field on which a
// checkpoint and a request differ, named by its JSON key.
func identityMismatch(ck, req Identity) error {
	a, b := reflect.ValueOf(ck), reflect.ValueOf(req)
	for i := 0; i < a.NumField(); i++ {
		if reflect.DeepEqual(a.Field(i).Interface(), b.Field(i).Interface()) {
			continue
		}
		name, _, _ := strings.Cut(a.Type().Field(i).Tag.Get("json"), ",")
		return &CheckpointMismatchError{Field: name,
			Checkpoint: fmt.Sprint(a.Field(i)), Requested: fmt.Sprint(b.Field(i))}
	}
	return nil
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
	id := c.Identity(check)
	var resume *sweepCheckpoint
	if c.Resume != "" {
		sc, err := loadSweepCheckpoint(c.Resume, id)
		if err != nil {
			return err
		}
		resume = sc
		*sweep = sc.Sweep
	} else if c.Checkpoint != "" {
		// Seed sweep.json before the first wiring so a cancel at any
		// point — even inside wiring 0 — leaves a resumable directory.
		if err := writeSweepCheckpoint(c.Checkpoint, sweepCheckpoint{Version: sweepMetaVersion, Search: id}); err != nil {
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
			sc := sweepCheckpoint{Version: sweepMetaVersion, Search: id, Completed: i + 1, Sweep: *sweep}
			if err := writeSweepCheckpoint(c.Checkpoint, sc); err != nil {
				return err
			}
		}
		return nil
	})
}
