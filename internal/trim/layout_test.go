package trim

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

// TestSelectAndHasAllocs pins the read path's allocations on a 10k store.
// A select by subject allocates its result once, sized from the posting
// list, plus the heavy-hitter shape key: 2 allocations at any result size
// (the two-layout Manager took 3 for one row and one more per doubling of
// a larger result). Has allocates nothing.
func TestSelectAndHasAllocs(t *testing.T) {
	if testing.CoverMode() != "" {
		t.Skip("coverage instrumentation allocates")
	}
	m := NewManager()
	for i := 0; i < 10000; i++ {
		if _, err := m.Create(benchTriple(i)); err != nil {
			t.Fatal(err)
		}
	}
	wide := rdf.IRI("http://t/wide")
	for i := 0; i < 100; i++ {
		m.Create(rdf.T(wide, rdf.IRI(fmt.Sprintf("http://t/p%d", i%7)), rdf.Integer(int64(i))))
	}
	for _, c := range []struct {
		subject rdf.Term
		rows    int
	}{{rdf.IRI("http://t/s5000"), 1}, {wide, 100}} {
		pat := rdf.P(c.subject, rdf.Zero, rdf.Zero)
		if n := len(m.Select(pat)); n != c.rows {
			t.Fatalf("select %v: %d rows, want %d", c.subject, n, c.rows)
		}
		if a := testing.AllocsPerRun(100, func() { m.Select(pat) }); a > 2 {
			t.Errorf("select %v (%d rows): %v allocs, want 2", c.subject, c.rows, a)
		}
	}
	for _, x := range []rdf.Triple{benchTriple(42), rdf.T(wide, rdf.IRI("http://t/p0"), rdf.String("absent"))} {
		if a := testing.AllocsPerRun(100, func() { m.Has(x) }); a != 0 {
			t.Errorf("Has(%v): %v allocs, want 0", x, a)
		}
	}
}

// TestDictionaryChurn runs create/remove pairs on fresh subject IRIs —
// the query benchmark's write class — and requires the dictionary to end
// where it started: each pair's new term is freed and its id reused, so
// a long-running store does not grow.
func TestDictionaryChurn(t *testing.T) {
	m := NewManager()
	populate(m, 100)
	size := func() (live, ids int) {
		m.mu.RLock()
		defer m.mu.RUnlock()
		return len(m.tab.ids), len(m.tab.terms)
	}
	live0, ids0 := size()
	for i := 0; i < 10000; i++ {
		x := rdf.T(rdf.IRI(fmt.Sprintf("http://t/write-%d", i)), rdf.IRI("http://t/p1"), rdf.String("scratch"))
		if created, err := m.Create(x); !created || err != nil {
			t.Fatalf("create %d: %v, %v", i, created, err)
		}
		if !m.Remove(x) {
			t.Fatalf("remove %d failed", i)
		}
	}
	live, ids := size()
	if live != live0 || ids > ids0+2 {
		t.Fatalf("dictionary grew under churn: %d live / %d ids, started at %d / %d", live, ids, live0, ids0)
	}
	if m.Len() != 100 {
		t.Fatalf("Len = %d after churn, want 100", m.Len())
	}
}
