package trim

import (
	"fmt"
	"testing"

	"repro/internal/rdf"
)

func benchTriple(i int) rdf.Triple {
	return rdf.T(
		rdf.IRI(fmt.Sprintf("http://t/s%d", i)),
		rdf.IRI(fmt.Sprintf("http://t/p%d", i%16)),
		rdf.Integer(int64(i%256)),
	)
}

func BenchmarkCreate(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if _, err := m.Create(benchTriple(i)); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkCreateDuplicate(b *testing.B) {
	m := NewManager()
	t := benchTriple(0)
	m.Create(t)
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		m.Create(t)
	}
}

func BenchmarkSelectBySubject(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	pat := rdf.P(rdf.IRI("http://t/s5000"), rdf.Zero, rdf.Zero)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Select(pat)) != 1 {
			b.Fatal("wrong result")
		}
	}
}

func BenchmarkHas(b *testing.B) {
	m := NewManager()
	for i := 0; i < 10000; i++ {
		m.Create(benchTriple(i))
	}
	t := benchTriple(5000)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !m.Has(t) {
			b.Fatal("missing")
		}
	}
}

func BenchmarkBatchApply(b *testing.B) {
	m := NewManager()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		batch := m.NewBatch()
		for j := 0; j < 5; j++ {
			batch.Create(benchTriple(i*5 + j))
		}
		if err := batch.Apply(); err != nil {
			b.Fatal(err)
		}
	}
}

func BenchmarkView(b *testing.B) {
	m, _ := buildTree(2, 10) // ~2k nodes
	root := rdf.IRI("http://t/root")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if m.View(root).Len() == 0 {
			b.Fatal("empty view")
		}
	}
}

func BenchmarkPath(b *testing.B) {
	m, _ := buildTree(2, 10)
	root := rdf.IRI("http://t/root")
	contains := rdf.IRI("http://t/contains")
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if len(m.Path([]rdf.Term{root}, contains, contains, contains)) != 8 {
			b.Fatal("wrong path result")
		}
	}
}
