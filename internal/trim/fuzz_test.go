package trim

import (
	"fmt"
	"slices"
	"testing"

	"repro/internal/rdf"
)

// FuzzManagerOps decodes the fuzzer's bytes into a sequence of store
// operations — creates, removes, RemoveMatching, SetUnique, batches
// (including one forced to roll back), Replace, Clear, and every read
// path — runs each against a Manager and the reference model, and after
// every op requires both to agree on contents, generation, the observer
// event stream, and the white-box term accounting.
//
// Plain `go test` replays the seeds below and the corpus under
// testdata/fuzz/FuzzManagerOps; `make fuzz` explores further.
func FuzzManagerOps(f *testing.F) {
	f.Add([]byte{})
	f.Add([]byte{0, 1, 2, 3, 0, 4, 5, 6, 9, 0, 0, 0, 10, 1, 1})
	f.Add([]byte{0, 1, 1, 1, 0, 2, 1, 3, 5, 3, 1, 2, 1, 1, 1, 2, 5, 7, 1, 1, 0})
	f.Add([]byte{4, 3, 0, 1, 1, 1, 0, 2, 2, 2, 1, 1, 1, 0, 4, 2, 0, 3, 4, 5, 1, 0})
	f.Add([]byte{6, 3, 0, 0, 1, 1, 2, 6, 3, 0, 9, 1, 7, 7, 11, 3, 2})
	f.Fuzz(func(t *testing.T, data []byte) {
		runOps(t, &opReader{data: data})
	})
}

// opReader hands out the fuzzer's bytes; an exhausted input reads as 0.
type opReader struct {
	data []byte
	pos  int
}

func (r *opReader) next() int {
	if r.pos >= len(r.data) {
		return 0
	}
	b := r.data[r.pos]
	r.pos++
	return int(b)
}

func (r *opReader) done() bool { return r.pos >= len(r.data) }

// The term universe is small so ops collide: resources double as
// subjects and objects (views and paths get real edges), and literals
// only ever appear as objects.
var (
	fuzzResources = []rdf.Term{
		rdf.IRI("http://f/s0"), rdf.IRI("http://f/s1"), rdf.IRI("http://f/s2"),
		rdf.IRI("http://f/s3"), rdf.Blank("b0"),
	}
	fuzzPredicates = []rdf.Term{rdf.IRI("http://f/p0"), rdf.IRI("http://f/p1"), rdf.IRI("http://f/p2")}
	fuzzLiterals   = []rdf.Term{rdf.String("x"), rdf.String("y"), rdf.Integer(1)}
)

func (r *opReader) subject() rdf.Term   { return fuzzResources[r.next()%len(fuzzResources)] }
func (r *opReader) predicate() rdf.Term { return fuzzPredicates[r.next()%len(fuzzPredicates)] }

func (r *opReader) object() rdf.Term {
	n := r.next() % (len(fuzzResources) + len(fuzzLiterals))
	if n < len(fuzzResources) {
		return fuzzResources[n]
	}
	return fuzzLiterals[n-len(fuzzResources)]
}

func (r *opReader) triple() rdf.Triple { return rdf.T(r.subject(), r.predicate(), r.object()) }

// pattern binds the positions named by the mask's low three bits.
func (r *opReader) pattern(mask int) rdf.Pattern {
	var p rdf.Pattern
	if mask&4 != 0 {
		p.Subject = r.subject()
	}
	if mask&2 != 0 {
		p.Predicate = r.predicate()
	}
	if mask&1 != 0 {
		p.Object = r.object()
	}
	return p
}

const fuzzMaxOps = 64

func runOps(t *testing.T, r *opReader) {
	m := NewManager()
	model := &refModel{}
	var got []seqEvent
	m.ObserveSeq(func(gen uint64, tr rdf.Triple, added bool) {
		got = append(got, seqEvent{gen, tr, added})
	})
	invalid := rdf.T(rdf.String("literal subject"), fuzzPredicates[0], fuzzLiterals[0])

	for step := 0; step < fuzzMaxOps && !r.done(); step++ {
		op := r.next()
		desc := ""
		switch op % 12 {
		case 0:
			x := r.triple()
			desc = fmt.Sprintf("create %v", x)
			a, aerr := m.Create(x)
			b, berr := model.create(x)
			if a != b || (aerr == nil) != (berr == nil) {
				t.Fatalf("step %d %s: manager (%v, %v), model (%v, %v)", step, desc, a, aerr, b, berr)
			}
		case 1:
			x := r.triple()
			desc = fmt.Sprintf("remove %v", x)
			if a, b := m.Remove(x), model.remove(x); a != b {
				t.Fatalf("step %d %s: manager %v, model %v", step, desc, a, b)
			}
		case 2:
			p := r.pattern(r.next())
			desc = fmt.Sprintf("remove-matching %v", p)
			if a, b := m.RemoveMatching(p), model.removeMatching(p); a != b {
				t.Fatalf("step %d %s: manager %d, model %d", step, desc, a, b)
			}
		case 3:
			s, p := r.subject(), r.predicate()
			o := rdf.Zero // an invalid final create: SetUnique's removes still stand
			if n := r.next(); n%8 != 0 {
				o = r.object()
			}
			desc = fmt.Sprintf("set-unique %v %v %v", s, p, o)
			aerr, berr := m.SetUnique(s, p, o), model.setUnique(s, p, o)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("step %d %s: manager %v, model %v", step, desc, aerr, berr)
			}
		case 4:
			desc = "batch"
			b := m.NewBatch()
			var patterns []rdf.Pattern
			var removes, creates []rdf.Triple
			for n := r.next()%5 + 1; n > 0; n-- {
				switch r.next() % 3 {
				case 0:
					x := r.triple()
					creates = append(creates, x)
					if err := b.Create(x); err != nil {
						t.Fatalf("step %d: stage create %v: %v", step, x, err)
					}
				case 1:
					x := r.triple()
					removes = append(removes, x)
					b.Remove(x)
				default:
					p := r.pattern(r.next())
					patterns = append(patterns, p)
					b.RemoveMatching(p)
				}
			}
			if r.next()%4 == 0 {
				// Staging validates, so only a white-box append reaches the
				// apply-time failure that exercises the undo log.
				desc = "batch (rolled back)"
				b.creates = append(b.creates, invalid)
				creates = append(creates, invalid)
			}
			aerr, berr := b.Apply(), model.apply(patterns, removes, creates)
			if (aerr == nil) != (berr == nil) {
				t.Fatalf("step %d %s: manager %v, model %v", step, desc, aerr, berr)
			}
		case 5:
			g := rdf.NewGraph()
			var ts []rdf.Triple
			for n := r.next() % 6; n > 0; n-- {
				x := r.triple()
				g.Add(x)
				ts = append(ts, x)
			}
			desc = fmt.Sprintf("replace with %d triple(s)", g.Len())
			m.Replace(g)
			model.replace(ts)
		case 6:
			desc = "clear"
			m.Clear()
			model.replace(nil)
		case 7:
			p := r.pattern(r.next())
			desc = fmt.Sprintf("select %v", p)
			want := model.selectP(p)
			sameTriples(t, step, desc, m.Select(p), want)
			out, e := m.SelectExplain(p)
			sameTriples(t, step, desc+" (explain)", out, want)
			index, candidates, est := model.explain(p)
			if e.Index != index || e.Candidates != candidates || e.Matched != len(want) ||
				e.EstRows != est || e.StoreSize != len(model.ts) || e.Generation != model.gen {
				t.Fatalf("step %d %s: explain %+v, want index=%s candidates=%d matched=%d est=%d store=%d gen=%d",
					step, desc, e, index, candidates, len(want), est, len(model.ts), model.gen)
			}
			if a, b := m.Count(p), len(want); a != b {
				t.Fatalf("step %d count %v: manager %d, model %d", step, p, a, b)
			}
		case 8:
			x := r.triple()
			desc = fmt.Sprintf("has %v", x)
			_, want := model.find(x)
			if m.Has(x) != want {
				t.Fatalf("step %d %s: manager %v, model %v", step, desc, !want, want)
			}
		case 9:
			root := r.object()
			desc = fmt.Sprintf("view %v", root)
			sameTriples(t, step, desc, m.View(root).All(), model.view(root))
		case 10:
			start := []rdf.Term{r.object(), r.object()}
			preds := make([]rdf.Term, r.next()%3+1)
			for i := range preds {
				preds[i] = r.predicate()
			}
			desc = fmt.Sprintf("path %v %v", start, preds)
			want := model.path(start, preds)
			if a := m.Path(start, preds...); !slices.Equal(a, want) {
				t.Fatalf("step %d %s: manager %v, model %v", step, desc, a, want)
			}
			if a, e := m.PathExplain(start, preds...); !slices.Equal(a, want) || e.Matched != len(want) {
				t.Fatalf("step %d %s (explain): manager %v (matched %d), model %v", step, desc, a, e.Matched, want)
			}
		case 11:
			p := r.pattern(r.next())
			desc = fmt.Sprintf("count %v", p)
			if a, b := m.Count(p), model.count(p); a != b {
				t.Fatalf("step %d %s: manager %d, model %d", step, desc, a, b)
			}
		}
		agree(t, step, desc, m, model, got)
	}
}

// agree is the after-every-op check: contents, size, generation, the
// observer stream so far, and the white-box term accounting.
func agree(t *testing.T, step int, desc string, m *Manager, model *refModel, got []seqEvent) {
	t.Helper()
	sameTriples(t, step, desc+": contents", m.Select(rdf.Pattern{}), model.ts)
	if m.Len() != len(model.ts) {
		t.Fatalf("step %d %s: Len %d, model %d", step, desc, m.Len(), len(model.ts))
	}
	if g := m.Generation(); g != model.gen {
		t.Fatalf("step %d %s: generation %d, model %d", step, desc, g, model.gen)
	}
	if !slices.Equal(got, model.events) {
		t.Fatalf("step %d %s: observer saw %v, model %v", step, desc, got, model.events)
	}
	want := map[rdf.Term]struct{}{}
	for _, x := range model.ts {
		want[x.Subject], want[x.Predicate], want[x.Object] = struct{}{}, struct{}{}, struct{}{}
	}
	have := storedTerms(t, m)
	if len(have) != len(want) {
		t.Fatalf("step %d %s: store holds %d term(s), live rows use %d", step, desc, len(have), len(want))
	}
	for term := range want {
		if _, ok := have[term]; !ok {
			t.Fatalf("step %d %s: live term %v missing from the store", step, desc, term)
		}
	}
}

func sameTriples(t *testing.T, step int, desc string, got, want []rdf.Triple) {
	t.Helper()
	if len(got) == 0 && len(want) == 0 {
		return
	}
	if !slices.Equal(got, want) {
		t.Fatalf("step %d %s:\nmanager %v\nmodel   %v", step, desc, got, want)
	}
}

// storedTerms is the white-box view of the terms the store keeps: the
// dictionary, which must agree with its reverse map and free list.
func storedTerms(t *testing.T, m *Manager) map[rdf.Term]struct{} {
	t.Helper()
	m.mu.RLock()
	defer m.mu.RUnlock()
	out := map[rdf.Term]struct{}{}
	for id, term := range m.tab.terms {
		if term.IsZero() {
			continue
		}
		if got, ok := m.tab.ids[term]; !ok || got != uint32(id) {
			t.Fatalf("dictionary: term %v at id %d maps back to %d (%v)", term, id, got, ok)
		}
		out[term] = struct{}{}
	}
	if len(out) != len(m.tab.ids) || len(out)+len(m.tab.free) != len(m.tab.terms) {
		t.Fatalf("dictionary: %d live id(s), %d mapped term(s), %d free of %d", len(out), len(m.tab.ids), len(m.tab.free), len(m.tab.terms))
	}
	return out
}
