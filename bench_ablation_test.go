// Ablation benches for the design choices DESIGN.md calls out: the indexed
// Manager versus a raw scan, atomic batches versus single creates, and
// bulk loading versus one create per triple into the interned layout (§6's
// "alternative implementation mechanisms" for large data).
package repro_test

import (
	"fmt"
	"runtime"
	"testing"

	"repro/internal/rdf"
	"repro/internal/trim"
)

func syntheticTriple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://t/s%d", i)),
		rdf.IRI(fmt.Sprintf("http://t/p%d", i%20)),
		rdf.Integer(int64(i%100)),
	)
}

// BenchmarkAblation_IndexedVsScan: the subject/predicate/object hash
// indexes versus scanning the whole graph — why TRIM maintains three
// indexes per store.
func BenchmarkAblation_IndexedVsScan(b *testing.B) {
	const size = 50000
	m := trim.NewManager()
	for i := 0; i < size; i++ {
		m.Create(syntheticTriple(i))
	}
	snapshot := m.Snapshot()
	pat := rdf.P(rdf.IRI("http://t/s777"), rdf.Zero, rdf.Zero)
	b.Run("indexed", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(m.Select(pat))
		}
	})
	b.Run("scan", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			sink += len(snapshot.Select(pat))
		}
	})
}

// BenchmarkAblation_BatchVsSingle: creating one Bundle's five triples
// through an atomic batch (one lock acquisition, all-or-nothing) versus
// five independent creates.
func BenchmarkAblation_BatchVsSingle(b *testing.B) {
	mk := func(i int) []rdf.Triple {
		id := rdf.IRI(fmt.Sprintf("http://t/bundle%d", i))
		return []rdf.Triple{
			rdf.T(id, rdf.RDFType, rdf.IRI("http://t/Bundle")),
			rdf.T(id, rdf.IRI("http://t/name"), rdf.String("b")),
			rdf.T(id, rdf.IRI("http://t/pos"), rdf.String("1,2")),
			rdf.T(id, rdf.IRI("http://t/w"), rdf.Integer(100)),
			rdf.T(id, rdf.IRI("http://t/h"), rdf.Integer(100)),
		}
	}
	b.Run("batch", func(b *testing.B) {
		m := trim.NewManager()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			batch := m.NewBatch()
			for _, t := range mk(i) {
				if err := batch.Create(t); err != nil {
					b.Fatal(err)
				}
			}
			if err := batch.Apply(); err != nil {
				b.Fatal(err)
			}
		}
	})
	b.Run("single-creates", func(b *testing.B) {
		m := trim.NewManager()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			for _, t := range mk(i) {
				if _, err := m.Create(t); err != nil {
					b.Fatal(err)
				}
			}
		}
	})
}

// BenchmarkAblation_LoadPath: filling the interned layout one Create at a
// time versus one bulk Replace from a parsed graph (the LoadFile path),
// with the live heap each store holds afterwards reported as
// heap-bytes/triple, and a point select on the loaded store.
func BenchmarkAblation_LoadPath(b *testing.B) {
	const size = 20000
	g := rdf.NewGraph()
	for i := 0; i < size; i++ {
		g.Add(syntheticTriple(i))
	}
	triples := g.All()
	heapPerTriple := func(b *testing.B, load func() *trim.Manager) {
		runtime.GC()
		var before, after runtime.MemStats
		runtime.ReadMemStats(&before)
		m := load()
		runtime.GC()
		runtime.ReadMemStats(&after)
		b.ReportMetric(float64(int64(after.HeapAlloc)-int64(before.HeapAlloc))/float64(m.Len()), "heap-bytes/triple")
	}
	create := func() *trim.Manager {
		m := trim.NewManager()
		for _, t := range triples {
			if _, err := m.Create(t); err != nil {
				panic(err)
			}
		}
		return m
	}
	replace := func() *trim.Manager {
		m := trim.NewManager()
		m.Replace(g)
		return m
	}
	b.Run("create", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			create()
		}
		heapPerTriple(b, create)
	})
	b.Run("replace", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			replace()
		}
		heapPerTriple(b, replace)
	})
	m := replace()
	pat := rdf.P(rdf.IRI("http://t/s15555"), rdf.Zero, rdf.Zero)
	b.Run("select", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			sink += len(m.Select(pat))
		}
	})
}
