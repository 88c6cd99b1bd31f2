package main

import (
	"fmt"
	"os"
	"time"

	"anonshm/internal/explore"
	"anonshm/internal/machine"
	"anonshm/internal/store"
)

// Outcome is one explore.Run: its verdict, result and wall time.
type Outcome struct {
	Verdict string
	Res     explore.Result
	Wall    time.Duration
}

// Answer projects the outcome onto the known-answer fields.
func (o Outcome) Answer(w Wiring) Answer {
	return Answer{Wiring: w.String(), Verdict: o.Verdict, States: o.Res.States, Edges: o.Res.Edges,
		Terminals: o.Res.Terminals, GroupSize: o.Res.Stats.GroupSize}
}

// Check runs explore.Run on sys and times it. On the disk tier it gives
// the run a fresh scratch directory under scratch, made before the clock
// starts and removed after it stops. A run that errors (other than an
// invariant violation, which is a verdict) returns the error.
func Check(sys *machine.System, opts explore.Options, scratch string) (Outcome, error) {
	if opts.Store == store.Disk {
		dir, err := os.MkdirTemp(scratch, "store-")
		if err != nil {
			return Outcome{}, fmt.Errorf("disk store directory: %w", err)
		}
		defer os.RemoveAll(dir)
		opts.StoreDir = dir
	}
	start := time.Now()
	res, err := explore.Run(sys, opts)
	wall := time.Since(start)
	verdict, err := Verdict(res, err)
	if err != nil {
		return Outcome{}, err
	}
	return Outcome{Verdict: verdict, Res: res, Wall: wall}, nil
}
