package trim

import (
	"sort"

	"repro/internal/rdf"
)

// refModel is the reference model FuzzManagerOps checks the Manager
// against: a sorted slice of distinct triples, the generation counter,
// and the observer events the Manager must deliver. It is written for
// obviousness, not speed — every query is a linear scan.
type refModel struct {
	ts     []rdf.Triple // sorted by Triple.Compare, no duplicates
	gen    uint64
	events []seqEvent
}

// seqEvent is one observer notification as a SeqObserver sees it.
type seqEvent struct {
	gen   uint64
	t     rdf.Triple
	added bool
}

func (r *refModel) find(t rdf.Triple) (int, bool) {
	i := sort.Search(len(r.ts), func(i int) bool { return r.ts[i].Compare(t) >= 0 })
	return i, i < len(r.ts) && r.ts[i] == t
}

func (r *refModel) create(t rdf.Triple) (bool, error) {
	if err := t.Validate(); err != nil {
		return false, err
	}
	i, ok := r.find(t)
	if ok {
		return false, nil
	}
	r.ts = append(r.ts[:i], append([]rdf.Triple{t}, r.ts[i:]...)...)
	r.gen++
	r.events = append(r.events, seqEvent{r.gen, t, true})
	return true, nil
}

func (r *refModel) remove(t rdf.Triple) bool {
	i, ok := r.find(t)
	if !ok {
		return false
	}
	r.ts = append(r.ts[:i], r.ts[i+1:]...)
	r.gen++
	r.events = append(r.events, seqEvent{r.gen, t, false})
	return true
}

func (r *refModel) selectP(p rdf.Pattern) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range r.ts {
		if p.Matches(t) {
			out = append(out, t)
		}
	}
	return out
}

func (r *refModel) removeMatching(p rdf.Pattern) int {
	matches := r.selectP(p)
	for _, t := range matches {
		r.remove(t)
	}
	return len(matches)
}

func (r *refModel) setUnique(s, p, o rdf.Term) error {
	r.removeMatching(rdf.P(s, p, rdf.Zero))
	_, err := r.create(rdf.T(s, p, o))
	return err
}

// apply is Batch.Apply: pattern removes, exact removes, then creates; a
// failing create undoes everything applied so far in reverse order, and
// the undo steps are mutations observers see like any other.
func (r *refModel) apply(patterns []rdf.Pattern, removes, creates []rdf.Triple) error {
	type undo struct {
		t     rdf.Triple
		readd bool
	}
	var log []undo
	for _, p := range patterns {
		for _, t := range r.selectP(p) {
			r.remove(t)
			log = append(log, undo{t, true})
		}
	}
	for _, t := range removes {
		if r.remove(t) {
			log = append(log, undo{t, true})
		}
	}
	for _, t := range creates {
		added, err := r.create(t)
		if err != nil {
			for i := len(log) - 1; i >= 0; i-- {
				if log[i].readd {
					r.create(log[i].t)
				} else {
					r.remove(log[i].t)
				}
			}
			return err
		}
		if added {
			log = append(log, undo{t, false})
		}
	}
	return nil
}

// replace is Replace/Clear: new contents, one generation, no events.
func (r *refModel) replace(ts []rdf.Triple) {
	r.ts = nil
	for _, t := range ts {
		if i, ok := r.find(t); !ok {
			r.ts = append(r.ts[:i], append([]rdf.Triple{t}, r.ts[i:]...)...)
		}
	}
	r.gen++
}

// view is the reachability closure from root over subject→object edges.
func (r *refModel) view(root rdf.Term) []rdf.Triple {
	if !root.IsResource() {
		return nil
	}
	seen := map[rdf.Term]bool{root: true}
	in := map[rdf.Triple]bool{}
	for frontier := []rdf.Term{root}; len(frontier) > 0; frontier = frontier[1:] {
		for _, t := range r.selectP(rdf.P(frontier[0], rdf.Zero, rdf.Zero)) {
			in[t] = true
			if t.Object.IsResource() && !seen[t.Object] {
				seen[t.Object] = true
				frontier = append(frontier, t.Object)
			}
		}
	}
	return r.selectFn(func(t rdf.Triple) bool { return in[t] })
}

func (r *refModel) selectFn(keep func(rdf.Triple) bool) []rdf.Triple {
	var out []rdf.Triple
	for _, t := range r.ts {
		if keep(t) {
			out = append(out, t)
		}
	}
	return out
}

// path follows each predicate subject→object from the resource starts.
func (r *refModel) path(start []rdf.Term, preds []rdf.Term) []rdf.Term {
	frontier := map[rdf.Term]bool{}
	for _, s := range start {
		if s.IsResource() {
			frontier[s] = true
		}
	}
	for _, p := range preds {
		next := map[rdf.Term]bool{}
		for _, t := range r.ts {
			if frontier[t.Subject] && t.Predicate == p {
				next[t.Object] = true
			}
		}
		frontier = next
	}
	out := make([]rdf.Term, 0, len(frontier))
	for t := range frontier {
		out = append(out, t)
	}
	sortTerms(out)
	return out
}

// explain is the EXPLAIN a select must report: the smallest bound bucket
// (subject, then object, then predicate on ties) and the per-predicate
// estimate.
func (r *refModel) explain(p rdf.Pattern) (index string, candidates, estRows int) {
	index, candidates = "scan", len(r.ts)
	for _, b := range []struct {
		name string
		term rdf.Term
		pos  func(rdf.Triple) rdf.Term
	}{
		{"subject", p.Subject, func(t rdf.Triple) rdf.Term { return t.Subject }},
		{"object", p.Object, func(t rdf.Triple) rdf.Term { return t.Object }},
		{"predicate", p.Predicate, func(t rdf.Triple) rdf.Term { return t.Predicate }},
	} {
		if b.term.IsZero() {
			continue
		}
		n := len(r.selectFn(func(t rdf.Triple) bool { return b.pos(t) == b.term }))
		if index == "scan" || n < candidates {
			index, candidates = b.name, n
		}
	}
	if len(r.ts) == 0 {
		return index, candidates, 0
	}
	if p.Predicate.IsZero() {
		return index, candidates, min(len(r.ts), r.count(rdf.P(p.Subject, rdf.Zero, rdf.Zero)), r.count(rdf.P(rdf.Zero, rdf.Zero, p.Object)))
	}
	rows := r.selectP(rdf.P(rdf.Zero, p.Predicate, rdf.Zero))
	est := len(rows)
	subjects, objects := map[rdf.Term]bool{}, map[rdf.Term]bool{}
	for _, t := range rows {
		subjects[t.Subject], objects[t.Object] = true, true
	}
	if !p.Subject.IsZero() && len(subjects) > 0 {
		est = meanShare(est, len(subjects))
	}
	if !p.Object.IsZero() && len(objects) > 0 {
		est = meanShare(est, len(objects))
	}
	return index, candidates, est
}

func (r *refModel) count(p rdf.Pattern) int { return len(r.selectP(p)) }
