package view

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
	"testing/quick"
)

// randomView builds a view from a random bitmask over IDs [0, 130) so that
// multi-word representations are exercised.
func randomView(r *rand.Rand) View {
	v := Empty()
	n := r.Intn(12)
	for i := 0; i < n; i++ {
		v = v.With(ID(r.Intn(130)))
	}
	return v
}

// Generate implements quick.Generator so Views can appear directly in
// property signatures.
func (View) Generate(r *rand.Rand, _ int) reflect.Value {
	return reflect.ValueOf(randomView(r))
}

func TestEmpty(t *testing.T) {
	e := Empty()
	if !e.IsEmpty() || e.Len() != 0 {
		t.Fatalf("Empty() not empty: %v", e)
	}
	if e.Key() != "-" {
		t.Errorf("Empty().Key() = %q, want \"-\"", e.Key())
	}
	if got := e.IDs(); len(got) != 0 {
		t.Errorf("Empty().IDs() = %v, want empty", got)
	}
	if e.Contains(0) {
		t.Error("Empty() contains 0")
	}
	if !e.SubsetOf(e) || !e.Equal(Empty()) {
		t.Error("Empty() not subset/equal of itself")
	}
}

func TestOfAndContains(t *testing.T) {
	v := Of(1, 3, 64, 129)
	for _, id := range []ID{1, 3, 64, 129} {
		if !v.Contains(id) {
			t.Errorf("view missing %d", id)
		}
	}
	for _, id := range []ID{0, 2, 63, 65, 128, 130} {
		if v.Contains(id) {
			t.Errorf("view unexpectedly contains %d", id)
		}
	}
	if v.Len() != 4 {
		t.Errorf("Len = %d, want 4", v.Len())
	}
	want := []ID{1, 3, 64, 129}
	if got := v.IDs(); !reflect.DeepEqual(got, want) {
		t.Errorf("IDs() = %v, want %v", got, want)
	}
}

func TestWithIdempotent(t *testing.T) {
	v := Of(5)
	w := v.With(5)
	if !v.Equal(w) {
		t.Error("With on existing member changed the view")
	}
}

func TestWithNegativePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("With(-1) did not panic")
		}
	}()
	Empty().With(-1)
}

func TestContainsNegative(t *testing.T) {
	if Of(1).Contains(-1) {
		t.Error("Contains(-1) = true")
	}
}

func TestUnionBasic(t *testing.T) {
	a := Of(1, 2)
	b := Of(2, 3)
	u := a.Union(b)
	if !u.Equal(Of(1, 2, 3)) {
		t.Errorf("Union = %v", u)
	}
	// Union with subset returns receiver unchanged.
	if !a.Union(Of(1)).Equal(a) {
		t.Error("Union with subset wrong")
	}
	if !Of(1).Union(a).Equal(a) {
		t.Error("Union into superset wrong")
	}
}

func TestIntersectAndDiff(t *testing.T) {
	a := Of(1, 2, 64)
	b := Of(2, 64, 100)
	if got := a.Intersect(b); !got.Equal(Of(2, 64)) {
		t.Errorf("Intersect = %v", got)
	}
	if got := a.Diff(b); !got.Equal(Of(1)) {
		t.Errorf("Diff = %v", got)
	}
	if got := a.Diff(a); !got.IsEmpty() {
		t.Errorf("Diff self = %v", got)
	}
	// Diff that clears the high word must renormalize so Key is canonical.
	if got := Of(64).Diff(Of(64)); got.Key() != "-" {
		t.Errorf("Key of cleared view = %q", got.Key())
	}
}

func TestSubsetProperAndComparable(t *testing.T) {
	a := Of(1)
	b := Of(1, 2)
	c := Of(2, 3)
	if !a.SubsetOf(b) || !a.ProperSubsetOf(b) {
		t.Error("a ⊂ b not detected")
	}
	if b.SubsetOf(a) {
		t.Error("b ⊆ a wrongly detected")
	}
	if a.ProperSubsetOf(a) {
		t.Error("a ⊂ a wrongly detected")
	}
	if !a.ComparableWith(b) || !b.ComparableWith(a) {
		t.Error("comparable views not detected")
	}
	if b.ComparableWith(c) {
		t.Error("incomparable views detected as comparable")
	}
}

func TestRank(t *testing.T) {
	v := Of(3, 7, 70)
	cases := []struct {
		id   ID
		rank int
		ok   bool
	}{
		{3, 1, true}, {7, 2, true}, {70, 3, true}, {5, 0, false},
	}
	for _, c := range cases {
		r, ok := v.Rank(c.id)
		if r != c.rank || ok != c.ok {
			t.Errorf("Rank(%d) = (%d,%v), want (%d,%v)", c.id, r, ok, c.rank, c.ok)
		}
	}
	if r, ok := Empty().Rank(0); ok || r != 0 {
		t.Errorf("Rank on empty = (%d,%v)", r, ok)
	}
}

func TestKeyCanonical(t *testing.T) {
	a := Of(1, 2).Diff(Of(2))
	b := Of(1)
	if a.Key() != b.Key() {
		t.Errorf("equal views have different keys: %q vs %q", a.Key(), b.Key())
	}
	if Of(64).Key() == Of(0).Key() {
		t.Error("distinct views share a key")
	}
}

func TestStringAndFormat(t *testing.T) {
	in := NewInterner()
	one := in.Intern("1")
	three := in.Intern("3")
	v := Of(one, three)
	if got := v.String(); got != "{0,1}" {
		t.Errorf("String() = %q", got)
	}
	if got := v.Format(in); got != "{1,3}" {
		t.Errorf("Format() = %q", got)
	}
	if got := v.With(9).Format(in); got != "{#9,1,3}" {
		t.Errorf("Format() with unknown = %q", got)
	}
	if got := Empty().String(); got != "{}" {
		t.Errorf("empty String() = %q", got)
	}
}

// --- properties ---

func TestPropUnionCommutative(t *testing.T) {
	f := func(a, b View) bool { return a.Union(b).Equal(b.Union(a)) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUnionAssociative(t *testing.T) {
	f := func(a, b, c View) bool {
		return a.Union(b).Union(c).Equal(a.Union(b.Union(c)))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropUnionIdempotent(t *testing.T) {
	f := func(a View) bool { return a.Union(a).Equal(a) }
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubsetUnion(t *testing.T) {
	f := func(a, b View) bool {
		u := a.Union(b)
		return a.SubsetOf(u) && b.SubsetOf(u)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropSubsetAntisymmetric(t *testing.T) {
	f := func(a, b View) bool {
		if a.SubsetOf(b) && b.SubsetOf(a) {
			return a.Equal(b)
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropIntersectSubset(t *testing.T) {
	f := func(a, b View) bool {
		i := a.Intersect(b)
		return i.SubsetOf(a) && i.SubsetOf(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropDiffDisjoint(t *testing.T) {
	f := func(a, b View) bool {
		d := a.Diff(b)
		return d.Intersect(b).IsEmpty() && d.Union(a.Intersect(b)).Equal(a)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropKeyEquality(t *testing.T) {
	f := func(a, b View) bool {
		return (a.Key() == b.Key()) == a.Equal(b)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropIDsSortedUnique(t *testing.T) {
	f := func(a View) bool {
		ids := a.IDs()
		if len(ids) != a.Len() {
			return false
		}
		return sort.SliceIsSorted(ids, func(i, j int) bool { return ids[i] < ids[j] }) &&
			func() bool {
				for i := 1; i < len(ids); i++ {
					if ids[i] == ids[i-1] {
						return false
					}
				}
				return true
			}()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropImmutability(t *testing.T) {
	f := func(a, b View) bool {
		keyA, keyB := a.Key(), b.Key()
		_ = a.Union(b)
		_ = a.Intersect(b)
		_ = a.Diff(b)
		_ = a.With(99)
		return a.Key() == keyA && b.Key() == keyB
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestPropRankConsistent(t *testing.T) {
	f := func(a View) bool {
		ids := a.IDs()
		for i, id := range ids {
			r, ok := a.Rank(id)
			if !ok || r != i+1 {
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeMatchesKey: two views have equal word encodings iff their
// keys are equal, and the length prefix delimits the encoding.
func TestEncodeMatchesKey(t *testing.T) {
	f := func(a, b View) bool {
		ea, eb := a.Encode(nil), b.Encode(nil)
		if int(ea[0]) != len(ea)-1 {
			return false
		}
		return reflect.DeepEqual(ea, eb) == (a.Key() == b.Key())
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

// TestEncodeRelabeled: the relabeled encoding equals the encoding of the
// view rebuilt from relabeled IDs, for permutations of prefixes 0..k-1
// shorter and longer than one word, and the view itself for nil β.
func TestEncodeRelabeled(t *testing.T) {
	r := rand.New(rand.NewSource(1))
	for i := 0; i < 2000; i++ {
		v := randomView(r)
		beta := make([]ID, r.Intn(140))
		for j, p := range r.Perm(len(beta)) {
			beta[j] = ID(p)
		}
		var ids []ID
		for _, id := range v.IDs() {
			if int(id) < len(beta) {
				id = beta[id]
			}
			ids = append(ids, id)
		}
		want := Of(ids...).Encode([]uint64{42})
		got := v.EncodeRelabeled([]uint64{42}, beta)
		if len(beta) == 0 {
			got = v.EncodeRelabeled([]uint64{42}, nil)
		}
		if !reflect.DeepEqual(got, want) {
			t.Fatalf("view %v under β %v: got %v, want %v", v, beta, got, want)
		}
	}
}
