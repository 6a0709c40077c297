package trim

import (
	"slices"

	"repro/internal/rdf"
)

// Path evaluates a predicate path: starting from the given resources, it
// follows each predicate in sequence (subject -> object) and returns the
// terms reached at the end, deduplicated and sorted. It is the small
// navigational query facility of §6's "query capabilities, in addition to
// the current navigational access" — e.g.
//
//	m.Path([]rdf.Term{pad}, rootBundle, bundleContent, scrapMark)
//
// yields every mark handle reachable from a pad.
func (m *Manager) Path(start []rdf.Term, predicates ...rdf.Term) []rdf.Term {
	recordPathShape(predicates, false)
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, _ := m.pathLocked(start, predicates)
	return out
}

// PathInverse follows predicates backwards (object -> subject): "which
// scraps hold this mark handle" style questions.
func (m *Manager) PathInverse(start []rdf.Term, predicates ...rdf.Term) []rdf.Term {
	recordPathShape(predicates, true)
	m.mu.RLock()
	defer m.mu.RUnlock()
	out, _ := m.walkLocked(start, predicates, posO, posS)
	return out
}

// pathLocked is the forward walk behind Path and PathExplain; only
// resource starts take part.
func (m *Manager) pathLocked(start, predicates []rdf.Term) ([]rdf.Term, int) {
	resources := make([]rdf.Term, 0, len(start))
	for _, s := range start {
		if s.IsResource() {
			resources = append(resources, s)
		}
	}
	return m.walkLocked(resources, predicates, posS, posO)
}

// walkLocked follows each predicate from the frontier's terms at position
// from to the terms at position to, returning the sorted terms reached
// and the number of edges examined.
func (m *Manager) walkLocked(start, predicates []rdf.Term, from, to int) ([]rdf.Term, int) {
	if len(predicates) == 0 {
		out := append(make([]rdf.Term, 0, len(start)), start...)
		sortTerms(out)
		return slices.Compact(out), 0
	}
	frontier := make(map[uint32]struct{}, len(start))
	for _, s := range start {
		if id, ok := m.tab.ids[s]; ok {
			frontier[id] = struct{}{}
		}
	}
	candidates := 0
	for _, pred := range predicates {
		pid, known := m.tab.ids[pred]
		next := make(map[uint32]struct{})
		for node := range frontier {
			list := m.tab.post[from][node]
			candidates += len(list)
			for _, r := range list {
				if ids := m.tab.rows[r].ids; known && ids[posP] == pid {
					next[ids[to]] = struct{}{}
				}
			}
		}
		frontier = next
		if len(frontier) == 0 {
			break
		}
	}
	out := make([]rdf.Term, 0, len(frontier))
	for id := range frontier {
		out = append(out, m.tab.terms[id])
	}
	sortTerms(out)
	return out, candidates
}
