package store

import (
	"fmt"
	"path/filepath"
	"testing"

	"anonshm/internal/core"
	"anonshm/internal/machine"
)

// xorshift is the tests' deterministic fingerprint stream.
func xorshift(x uint64) uint64 {
	x ^= x << 13
	x ^= x >> 7
	x ^= x << 17
	return x
}

func TestKindFlag(t *testing.T) {
	var k Kind
	for _, c := range []struct {
		in   string
		want Kind
		err  bool
	}{{"mem", Mem, false}, {"disk", Disk, false}, {"", Mem, false}, {"tape", 0, true}} {
		err := k.Set(c.in)
		if (err != nil) != c.err {
			t.Errorf("Set(%q) err = %v, want err=%v", c.in, err, c.err)
		}
		if err == nil && k != c.want {
			t.Errorf("Set(%q) = %v, want %v", c.in, k, c.want)
		}
	}
	if Mem.String() != "mem" || Disk.String() != "disk" {
		t.Errorf("Kind strings: %q %q", Mem.String(), Disk.String())
	}
}

func TestBytesFlag(t *testing.T) {
	cases := []struct {
		in   string
		want Bytes
		err  bool
	}{
		{"64MiB", 64 << 20, false},
		{"1GiB", 1 << 30, false},
		{"2KiB", 2048, false},
		{"4096", 4096, false},
		{"512B", 512, false},
		{"1M", 1 << 20, false},
		{"10MB", 10_000_000, false},
		{"-5", 0, true},
		{"fast", 0, true},
	}
	for _, c := range cases {
		var b Bytes
		err := b.Set(c.in)
		if (err != nil) != c.err {
			t.Errorf("Set(%q) err = %v, want err=%v", c.in, err, c.err)
			continue
		}
		if err == nil && b != c.want {
			t.Errorf("Set(%q) = %d, want %d", c.in, b, c.want)
		}
	}
	if got := Bytes(64 << 20).String(); got != "64MiB" {
		t.Errorf("String() = %q, want 64MiB", got)
	}
	var rt Bytes
	if err := rt.Set(Bytes(3 << 30).String()); err != nil || rt != 3<<30 {
		t.Errorf("round trip: %v %d", err, rt)
	}
}

func TestStepPacking(t *testing.T) {
	for _, proc := range []int{0, 1, 5, 63} {
		for _, choice := range []int{0, 1, 7, 1000} {
			s := PackStep(proc, choice)
			if s.Crash() || s.Proc() != proc || s.Choice() != choice {
				t.Fatalf("PackStep(%d,%d) decoded to crash=%v proc=%d choice=%d",
					proc, choice, s.Crash(), s.Proc(), s.Choice())
			}
		}
		c := PackCrash(proc)
		if !c.Crash() || c.Proc() != proc {
			t.Fatalf("PackCrash(%d) decoded to crash=%v proc=%d", proc, c.Crash(), c.Proc())
		}
	}
}

func TestPathSharing(t *testing.T) {
	root := (*PathNode)(nil).Extend(PackStep(0, 0))
	a := root.Extend(PackStep(1, 0))
	b := root.Extend(PackCrash(1))
	if a.Parent != root || b.Parent != root {
		t.Fatal("siblings must share the parent node")
	}
	steps := a.Steps()
	if len(steps) != 2 || steps[0] != PackStep(0, 0) || steps[1] != PackStep(1, 0) {
		t.Fatalf("Steps() = %v", steps)
	}
	if got := PathFromSteps(steps).Steps(); len(got) != 2 || got[0] != steps[0] || got[1] != steps[1] {
		t.Fatalf("PathFromSteps round trip = %v", got)
	}
}

// visitedImpls builds every VisitedSet implementation for a shared
// conformance test.
func visitedImpls(t *testing.T) map[string]VisitedSet {
	t.Helper()
	diskStore, err := Open(Config{Kind: Disk, Dir: t.TempDir(), MemLimit: 1 << 20, Root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { diskStore.Close() })
	dv, err := diskStore.NewVisited(false)
	if err != nil {
		t.Fatal(err)
	}
	return map[string]VisitedSet{
		"memVisited": newMemVisited(),
		"memTable":   newMemTable(4),
		"disk":       dv,
	}
}

// testRoot builds a root system whose processor 0 is always enabled
// (the never-terminating write-scan loop), so any step sequence of
// (proc 0, choice 0) is a valid replay path.
func testRoot(t *testing.T) *machine.System {
	t.Helper()
	sys, _, err := core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Registers: 2})
	if err != nil {
		t.Fatal(err)
	}
	return sys
}

func TestVisitedConformance(t *testing.T) {
	for name, v := range visitedImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer v.Close()
			const n = 50_000
			fp := uint64(0xdecafbad)
			fps := make([]uint64, 0, n)
			for i := 0; i < n; i++ {
				fp = xorshift(fp)
				fps = append(fps, fp)
				fresh, improved, err := v.Insert(fp, int32(i%97))
				if err != nil {
					t.Fatal(err)
				}
				if !fresh || improved {
					t.Fatalf("first insert of %#x: fresh=%v improved=%v", fp, fresh, improved)
				}
			}
			// Zero fingerprint round-trips (open-addressing substitution).
			if fresh, _, err := v.Insert(0, 3); err != nil || !fresh {
				t.Fatalf("insert of fp 0: fresh=%v err=%v", fresh, err)
			}
			if fresh, _, err := v.Insert(0, 3); err != nil || fresh {
				t.Fatalf("re-insert of fp 0: fresh=%v err=%v", fresh, err)
			}
			if got := v.Len(); got != n+1 {
				t.Fatalf("Len() = %d, want %d", got, n+1)
			}
			// Duplicates: same depth is no-op, smaller depth improves.
			for i, fp := range fps[:1000] {
				if fresh, improved, err := v.Insert(fp, int32(i%97)); err != nil || fresh || improved {
					t.Fatalf("dup insert %#x: fresh=%v improved=%v err=%v", fp, fresh, improved, err)
				}
				if fresh, improved, err := v.Insert(fp, int32(i%97)-1); err != nil || fresh || !improved {
					t.Fatalf("improving insert %#x: fresh=%v improved=%v err=%v", fp, fresh, improved, err)
				}
			}
			// Relax: improves present fps, ignores absent ones.
			if improved, found, err := v.Relax(fps[0], -5); err != nil || !improved || !found {
				t.Fatalf("Relax present: improved=%v found=%v err=%v", improved, found, err)
			}
			if improved, found, err := v.Relax(fps[0], 100); err != nil || improved || !found {
				t.Fatalf("Relax non-improving: improved=%v found=%v err=%v", improved, found, err)
			}
			if improved, found, err := v.Relax(0xabcdef0123456789, 0); err != nil || improved || found {
				t.Fatalf("Relax absent: improved=%v found=%v err=%v", improved, found, err)
			}
			if got := v.MaxDepth(); got != 96 {
				t.Fatalf("MaxDepth() = %d, want 96", got)
			}
		})
	}
}

func TestVisitedFPFileRoundTrip(t *testing.T) {
	for name, v := range visitedImpls(t) {
		t.Run(name, func(t *testing.T) {
			defer v.Close()
			fp := uint64(0xfeedface)
			for i := 0; i < 10_000; i++ {
				fp = xorshift(fp)
				if _, _, err := v.Insert(fp, int32(i%31)); err != nil {
					t.Fatal(err)
				}
			}
			path := filepath.Join(t.TempDir(), "visited.fp")
			if err := v.WriteFPFile(path); err != nil {
				t.Fatal(err)
			}
			// Reload into a fresh serial set and compare membership.
			nv := newMemVisited()
			if err := nv.LoadFPFile(path); err != nil {
				t.Fatal(err)
			}
			if nv.Len() != v.Len() {
				t.Fatalf("reloaded Len() = %d, want %d", nv.Len(), v.Len())
			}
			if nv.MaxDepth() != v.MaxDepth() {
				t.Fatalf("reloaded MaxDepth() = %d, want %d", nv.MaxDepth(), v.MaxDepth())
			}
			fp = uint64(0xfeedface)
			for i := 0; i < 10_000; i++ {
				fp = xorshift(fp)
				if fresh, _, _ := nv.Insert(fp, int32(i%31)); fresh {
					t.Fatalf("fp %#x lost in round trip", fp)
				}
			}
		})
	}
}

func TestFrontierOrders(t *testing.T) {
	mk := func(t *testing.T, kind Kind, order Order) Frontier {
		st, err := Open(Config{Kind: kind, Dir: t.TempDir(), MemLimit: 1 << 16, Root: testRoot(t)})
		if err != nil {
			t.Fatal(err)
		}
		t.Cleanup(func() { st.Close() })
		fr, err := st.NewFrontier(0, order)
		if err != nil {
			t.Fatal(err)
		}
		return fr
	}
	for _, kind := range []Kind{Mem, Disk} {
		for _, order := range []Order{FIFO, LIFO} {
			t.Run(fmt.Sprintf("%v-%d", kind, order), func(t *testing.T) {
				fr := mk(t, kind, order)
				defer fr.Close()
				sys := testRoot(t)
				var path *PathNode
				const n = 2000 // enough to force disk spills at 64KiB
				for i := 0; i < n; i++ {
					path = path.Extend(PackStep(0, 0))
					if err := fr.Push(Entry{Sys: sys.Clone(), Aux: uint64(i), Depth: int32(i), Path: path}); err != nil {
						t.Fatal(err)
					}
				}
				if fr.Len() != n {
					t.Fatalf("Len() = %d, want %d", fr.Len(), n)
				}
				for i := 0; i < n; i++ {
					e, ok, err := fr.Pop()
					if err != nil || !ok {
						t.Fatalf("Pop #%d: ok=%v err=%v", i, ok, err)
					}
					want := uint64(i)
					if order == LIFO {
						want = uint64(n - 1 - i)
					}
					if e.Aux != want {
						t.Fatalf("Pop #%d: aux=%d, want %d", i, e.Aux, want)
					}
					if e.Sys == nil {
						t.Fatalf("Pop #%d returned a nil Sys (replay missing)", i)
					}
				}
				if _, ok, _ := fr.Pop(); ok {
					t.Fatal("Pop on empty frontier reported ok")
				}
			})
		}
	}
}

func TestFrontierStealHalf(t *testing.T) {
	for _, kind := range []Kind{Mem, Disk} {
		t.Run(kind.String(), func(t *testing.T) {
			st, err := Open(Config{Kind: kind, Dir: t.TempDir(), MemLimit: 1 << 24, Root: testRoot(t)})
			if err != nil {
				t.Fatal(err)
			}
			defer st.Close()
			fr, err := st.NewFrontier(0, FIFO)
			if err != nil {
				t.Fatal(err)
			}
			defer fr.Close()
			sys := testRoot(t)
			var path *PathNode
			for i := 0; i < 10; i++ {
				path = path.Extend(PackStep(0, 0))
				if err := fr.Push(Entry{Sys: sys.Clone(), Aux: uint64(i), Path: path}); err != nil {
					t.Fatal(err)
				}
			}
			got := fr.StealHalf()
			if len(got) != 5 {
				t.Fatalf("StealHalf() took %d, want 5", len(got))
			}
			for i, e := range got {
				if e.Aux != uint64(5+i) {
					t.Fatalf("stolen entry %d has aux %d, want %d (newest half)", i, e.Aux, 5+i)
				}
			}
			if fr.Len() != 5 {
				t.Fatalf("Len() after steal = %d, want 5", fr.Len())
			}
		})
	}
}

func TestDiskFrontierSpills(t *testing.T) {
	st, err := Open(Config{Kind: Disk, Dir: t.TempDir(), MemLimit: 1 << 16, Root: testRoot(t)})
	if err != nil {
		t.Fatal(err)
	}
	defer st.Close()
	fr, err := st.NewFrontier(0, FIFO)
	if err != nil {
		t.Fatal(err)
	}
	defer fr.Close()
	sys := testRoot(t)
	var path *PathNode
	for i := 0; i < 5000; i++ {
		path = path.Extend(PackStep(i%2, 0))
		if err := fr.Push(Entry{Sys: sys.Clone(), Depth: int32(i), Path: path}); err != nil {
			t.Fatal(err)
		}
	}
	if s := st.Snapshot(); s.FrontierSpills == 0 || s.DiskBytesWritten == 0 {
		t.Fatalf("no spills recorded under a 64KiB ceiling: %+v", s)
	}
	for i := 0; i < 5000; i++ {
		if _, ok, err := fr.Pop(); !ok || err != nil {
			t.Fatalf("Pop #%d: ok=%v err=%v", i, ok, err)
		}
	}
	s := st.Snapshot()
	if s.FrontierLoads != s.FrontierSpills {
		t.Fatalf("loads (%d) != spills (%d) after draining", s.FrontierLoads, s.FrontierSpills)
	}
	if s.Replays == 0 || s.ReplaySteps == 0 {
		t.Fatalf("draining spilled entries recorded no replays: %+v", s)
	}
}
