package canon_test

import (
	"hash/maphash"
	"strconv"
	"strings"
	"testing"

	"anonshm/internal/anonmem"
	"anonshm/internal/baseline"
	"anonshm/internal/canon"
	"anonshm/internal/consensus"
	"anonshm/internal/core"
	"anonshm/internal/machine"
	"anonshm/internal/renaming"
	"anonshm/internal/view"
)

// The partition-equivalence oracle: word fingerprints must group states
// exactly as the string canonical form does — the minimum, over the
// bound group's elements, of the mirrored System.Key-style string built
// from StateKey/Key with views relabeled on the strings themselves.
// Agreement on every mirror of every reachable state, in both
// directions, shows the encoders are injective and encode exactly the
// fields the keys render.

// oracleCase is one system whose reachable states are enumerated.
type oracleCase struct {
	name    string
	init    *machine.System
	crashes int
	// prune, if set, stops expansion below a state (the state is kept).
	prune func(*machine.System) bool
}

var (
	idWirings2   = [][]int{{0, 1}, {0, 1}}
	swapWirings2 = [][]int{{0, 1}, {1, 0}}
)

func oracleCases(t *testing.T) []oracleCase {
	t.Helper()
	must := func(sys *machine.System, _ *view.Interner, err error) *machine.System {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	// baselineSys wires one baseline machine per processor over two
	// registers.
	baselineSys := func(initial anonmem.Word, wirings [][]int, mk func(p int) machine.Machine) *machine.System {
		t.Helper()
		mem, err := anonmem.New(2, initial, wirings)
		if err != nil {
			t.Fatal(err)
		}
		procs := make([]machine.Machine, len(wirings))
		for p := range procs {
			procs[p] = mk(p)
		}
		sys, err := machine.NewSystem(mem, procs)
		if err != nil {
			t.Fatal(err)
		}
		return sys
	}
	consensusSys := func(wirings [][]int) *machine.System {
		sys, in, err := consensus.NewSystem(consensus.Config{Inputs: []string{"x", "x"}, Wirings: wirings, Nondet: true})
		if err != nil {
			t.Fatal(err)
		}
		consensus.PreinternPairs(in, []string{"x"}, 3)
		return sys
	}
	consensusPrune := func(sys *machine.System) bool {
		for _, m := range sys.Procs {
			if m.(*consensus.Consensus).Timestamp() > 1 {
				return true
			}
		}
		return false
	}

	var cases []oracleCase
	for _, w := range []struct {
		name string
		perm [][]int
	}{{"id", idWirings2}, {"swap", swapWirings2}} {
		add := func(name string, sys *machine.System, prune func(*machine.System) bool) {
			cases = append(cases, oracleCase{name: name + "/" + w.name, init: sys, prune: prune})
		}
		add("snapshot", must(core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b"}, Wirings: w.perm, Nondet: true})), nil)
		add("snapshot-group", must(core.NewSnapshotSystem(core.Config{Inputs: []string{"g", "g"}, Wirings: w.perm, Nondet: true})), nil)
		add("writescan", must(core.NewWriteScanSystem(core.Config{Inputs: []string{"a", "b"}, Wirings: w.perm, Nondet: true})), nil)
		add("renaming", must(renaming.NewSystem(renaming.Config{Inputs: []string{"g", "g"}, Wirings: w.perm, Nondet: true})), nil)
		add("consensus", consensusSys(w.perm), consensusPrune)
		add("weakcounter", baselineSys(baseline.UnsetMark, w.perm, func(int) machine.Machine {
			return baseline.NewWeakCounter(2)
		}), nil)
		add("doublecollect", baselineSys(core.EmptyCell, w.perm, func(p int) machine.Machine {
			return baseline.NewDoubleCollect(2, view.ID(p))
		}), nil)
		add("blocking", baselineSys(core.EmptyCell, w.perm, func(p int) machine.Machine {
			return baseline.NewBlocking(2, view.ID(p))
		}), nil)
	}
	// Every case again with one crash.
	for _, c := range cases[:len(cases):len(cases)] {
		c.name += "/crash1"
		c.crashes = 1
		cases = append(cases, c)
	}
	if !testing.Short() {
		// N=3 with distinct inputs, cut where any view holds ≥2 inputs:
		// identity wirings admit all six processor permutations (each
		// with its own β), a rotation pair admits a two-element group.
		twoInputs := func(sys *machine.System) bool {
			for _, m := range sys.Procs {
				if m.(core.Viewer).View().Len() >= 2 {
					return true
				}
			}
			return false
		}
		for _, w := range []struct {
			name string
			perm [][]int
		}{{"id", nil}, {"pair", [][]int{{0, 1, 2}, {1, 0, 2}, {0, 1, 2}}}} {
			cases = append(cases, oracleCase{
				name:  "snapshot3/" + w.name,
				init:  must(core.NewSnapshotSystem(core.Config{Inputs: []string{"a", "b", "c"}, Wirings: w.perm})),
				prune: twoInputs,
			})
		}
	}
	return cases
}

// reachable enumerates the states reachable from c.init (regular steps
// and up to c.crashes crashes), deduplicated by System.Key.
func reachable(t *testing.T, c oracleCase) []*machine.System {
	t.Helper()
	const limit = 400_000
	seen := map[string]bool{c.init.Key(): true}
	states := []*machine.System{c.init}
	add := func(s *machine.System) {
		if k := s.Key(); !seen[k] {
			seen[k] = true
			states = append(states, s)
		}
	}
	for i := 0; i < len(states); i++ {
		if len(states) > limit {
			t.Fatalf("%s: more than %d states", c.name, limit)
		}
		sys := states[i]
		if c.prune != nil && c.prune(sys) {
			continue
		}
		for p := 0; p < sys.N(); p++ {
			if !sys.Enabled(p) {
				continue
			}
			for ch := range sys.Procs[p].Pending() {
				succ := sys.Clone()
				if _, err := succ.Step(p, ch); err != nil {
					t.Fatal(err)
				}
				add(succ)
			}
			if sys.CrashCount() < c.crashes {
				succ := sys.Clone()
				if _, err := succ.Crash(p); err != nil {
					t.Fatal(err)
				}
				add(succ)
			}
		}
	}
	return states
}

// relabeler rewrites key strings under input relabelings, memoized per
// (key, β): a system has few distinct views and machine keys.
type relabeler struct {
	t     *testing.T
	views map[relabelArgs]string
	keys  map[relabelArgs]string
}

type relabelArgs struct {
	key  string
	beta *view.ID
}

func newRelabeler(t *testing.T) *relabeler {
	return &relabeler{t: t, views: map[relabelArgs]string{}, keys: map[relabelArgs]string{}}
}

// view rewrites a View.Key string (hex words, most significant first,
// "-" when empty) under beta.
func (r *relabeler) view(key string, beta []view.ID) string {
	if key == "-" {
		return key
	}
	args := relabelArgs{key, &beta[0]}
	if out, ok := r.views[args]; ok {
		return out
	}
	words := strings.Split(key, ".")
	var ids []view.ID
	for i, w := range words {
		x, err := strconv.ParseUint(w, 16, 64)
		if err != nil {
			r.t.Fatalf("view key %q: %v", key, err)
		}
		base := 64 * (len(words) - 1 - i)
		for b := 0; b < 64; b++ {
			if x&(1<<uint(b)) != 0 {
				id := view.ID(base + b)
				if int(id) < len(beta) {
					id = beta[id]
				}
				ids = append(ids, id)
			}
		}
	}
	out := view.Of(ids...).Key()
	r.views[args] = out
	return out
}

// cell rewrites a Cell key, "<view>:<level>", under beta.
func (r *relabeler) cell(key string, beta []view.ID) string {
	i := strings.LastIndexByte(key, ':')
	return r.view(key[:i], beta) + key[i:]
}

// state rewrites the views inside a Relabelable machine's StateKey under
// beta: "sn:<v>:<level>:<unwritten>:<phase>[:...]" with the accumulated
// view (scan) or output view (done) sixth, and
// "ws:<v>:<unwritten>:<phase>[:<acc>]".
func (r *relabeler) state(key string, beta []view.ID) string {
	args := relabelArgs{key, &beta[0]}
	if out, ok := r.keys[args]; ok {
		return out
	}
	f := strings.Split(key, ":")
	switch f[0] {
	case "sn":
		f[1] = r.view(f[1], beta)
		if strings.HasPrefix(f[4], "s") || f[4] == "d" {
			f[5] = r.view(f[5], beta)
		}
	case "ws":
		f[1] = r.view(f[1], beta)
		if len(f) > 4 {
			f[4] = r.view(f[4], beta)
		}
	default:
		r.t.Fatalf("relabeling a non-relabelable machine key %q", key)
	}
	out := strings.Join(f, ":")
	r.keys[args] = out
	return out
}

// stateKeys is one state's string form, split for mirroring: register
// keys in global order, machine keys and crash flags in processor order.
type stateKeys struct {
	regs, procs []string
	crashed     []bool
}

func keysOf(sys *machine.System) stateKeys {
	k := stateKeys{crashed: make([]bool, sys.N())}
	for g := 0; g < sys.Mem.M(); g++ {
		k.regs = append(k.regs, sys.Mem.CellAt(g).Key())
	}
	for p, m := range sys.Procs {
		k.procs = append(k.procs, m.StateKey())
		k.crashed[p] = sys.Crashed(p)
	}
	return k
}

// mirror is the string form of a state's mirror under m: register keys
// in global order, machine keys in mirrored processor order, then the
// mirrored crash mask.
func (r *relabeler) mirror(k stateKeys, m canon.Mirror) string {
	var sb strings.Builder
	for g := range k.regs {
		src := g
		if m.RegInv != nil {
			src = m.RegInv[g]
		}
		key := k.regs[src]
		if m.Beta != nil {
			key = r.cell(key, m.Beta)
		}
		sb.WriteString(key)
		sb.WriteByte(0)
	}
	var mask uint64
	for q, p := range m.ProcInv {
		key := k.procs[p]
		if m.Beta != nil {
			key = r.state(key, m.Beta)
		}
		sb.WriteString(key)
		sb.WriteByte(0)
		if k.crashed[p] {
			mask |= 1 << uint(q)
		}
	}
	sb.WriteString("crashed:")
	sb.WriteString(strconv.FormatUint(mask, 16))
	return sb.String()
}

// bijection checks that a ↔ b pairs form a one-to-one correspondence.
type bijection struct {
	fwd, back map[uint64]uint64
}

func newBijection() *bijection {
	return &bijection{fwd: map[uint64]uint64{}, back: map[uint64]uint64{}}
}

// pair records a ↔ b and reports whether it contradicts earlier pairs.
func (bj *bijection) pair(a, b uint64) bool {
	if got, ok := bj.fwd[a]; ok && got != b {
		return false
	}
	if got, ok := bj.back[b]; ok && got != a {
		return false
	}
	bj.fwd[a], bj.back[b] = b, a
	return true
}

// symCheck is one symmetry level's hasher and its two bijections: string
// mirror ↔ word mirror hash, and string canonical form ↔ fingerprint.
type symCheck struct {
	sym        canon.Symmetry
	h          canon.Hasher
	mirrors    []canon.Mirror
	mirrorHash []func(*machine.System) uint64
	perMirror  *bijection
	classes    *bijection
}

// TestWordFingerprintsMatchStringKeys is the partition-equivalence
// oracle over all seven machines, with and without crashes, at every
// symmetry level.
func TestWordFingerprintsMatchStringKeys(t *testing.T) {
	seed := maphash.MakeSeed()
	strHash := func(s string) uint64 { return maphash.String(seed, s) }
	for _, c := range oracleCases(t) {
		var checks []*symCheck
		for _, sym := range []canon.Symmetry{canon.None, canon.Proc, canon.Full} {
			h := bind(t, sym.Canonicalizer(), c.init)
			mirrors, mirrorHash := canon.Mirrors(h, c.init.N())
			checks = append(checks, &symCheck{sym: sym, h: h, mirrors: mirrors, mirrorHash: mirrorHash,
				perMirror: newBijection(), classes: newBijection()})
		}
		r := newRelabeler(t)
		states := reachable(t, c)
		for _, s := range states {
			k := keysOf(s)
			for _, sc := range checks {
				canonical := ""
				for i, m := range sc.mirrors {
					key := r.mirror(k, m)
					if i == 0 || key < canonical {
						canonical = key
					}
					if !sc.perMirror.pair(strHash(key), sc.mirrorHash[i](s)) {
						t.Fatalf("%s/%s: mirror %d of %s: word hash and string key disagree", c.name, sc.sym, i, s.Key())
					}
				}
				if !sc.classes.pair(strHash(canonical), sc.h.Fingerprint(s, 0)) {
					t.Fatalf("%s/%s: state %s: fingerprint classes differ from string canonical classes", c.name, sc.sym, s.Key())
				}
			}
		}
		for _, sc := range checks {
			relabeled := false
			for _, m := range sc.mirrors {
				relabeled = relabeled || m.Beta != nil
			}
			t.Logf("%s/%s: %d states, %d classes, group %d, relabeling %v",
				c.name, sc.sym, len(states), len(sc.classes.fwd), sc.h.GroupSize(), relabeled)
		}
	}
}
