package trim

import (
	"slices"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// View computes the paper's "simple view" (§4.4): "A view is specified by
// selecting a resource (such as a Bundle id), where all triples that can be
// reached from this resource are returned (e.g., all triples representing
// nested Bundles within the given Bundle along with their Scraps)."
//
// Reachability follows subject→object edges: starting from root, every
// triple whose subject is a reached resource is in the view, and resource
// objects of those triples are reached in turn. The result is a fresh graph.
func (m *Manager) View(root rdf.Term) *rdf.Graph {
	return m.ViewFiltered(root, nil)
}

// ViewFiltered is View restricted to edges the filter accepts. A nil filter
// accepts every triple. Filters let DMIs exclude cross-links (e.g., marks
// shared between scraps) from a containment view.
func (m *Manager) ViewFiltered(root rdf.Term, filter func(rdf.Triple) bool) *rdf.Graph {
	start := time.Now()
	m.mu.RLock()
	out, candidates := m.viewLocked(root, filter)
	var e Explain
	slow := obs.DefaultSlowOps.Slow(time.Since(start))
	if slow {
		e = m.explainLocked("view", indexSubject, candidates, out.Len())
	}
	m.mu.RUnlock()
	d := time.Since(start)
	mViewNS.Observe(int64(d))
	mViewTotal.Inc()
	recordViewShape()
	if slow {
		e.Query = root.String()
		e.WallNS = int64(d)
		e.journal(start)
	}
	return out
}

// viewLocked is the reachability walk behind View, ViewFiltered, and
// ViewExplain; candidates counts every edge examined.
func (m *Manager) viewLocked(root rdf.Term, filter func(rdf.Triple) bool) (out *rdf.Graph, candidates int) {
	out = rdf.NewGraph()
	id, ok := m.tab.ids[root]
	if !root.IsResource() || !ok {
		return out, 0
	}
	visited := map[uint32]struct{}{id: {}}
	for frontier := []uint32{id}; len(frontier) > 0; frontier = frontier[1:] {
		for _, r := range m.tab.post[posS][frontier[0]] {
			candidates++
			t := m.tab.triple(r)
			if filter != nil && !filter(t) {
				continue
			}
			// Triples coming out of the store are already validated.
			if _, err := out.Add(t); err != nil {
				continue
			}
			obj := m.tab.rows[r].ids[posO]
			if _, seen := visited[obj]; seen || !t.Object.IsResource() {
				continue
			}
			visited[obj] = struct{}{}
			frontier = append(frontier, obj)
		}
	}
	return out, candidates
}

// Reachable returns the set of resources reachable from root (including
// root itself when it is a resource), in deterministic order.
func (m *Manager) Reachable(root rdf.Term) []rdf.Term {
	g := m.View(root)
	seen := map[rdf.Term]struct{}{}
	if root.IsResource() {
		seen[root] = struct{}{}
	}
	g.Each(func(t rdf.Triple) bool {
		seen[t.Subject] = struct{}{}
		if t.Object.IsResource() {
			seen[t.Object] = struct{}{}
		}
		return true
	})
	out := make([]rdf.Term, 0, len(seen))
	for term := range seen {
		out = append(out, term)
	}
	sortTerms(out)
	return out
}

// ReachesFrom reports whether target is reachable from root following
// subject→object edges.
func (m *Manager) ReachesFrom(root, target rdf.Term) bool {
	if root == target {
		return root.IsResource()
	}
	m.mu.RLock()
	defer m.mu.RUnlock()
	from, okFrom := m.tab.ids[root]
	to, okTo := m.tab.ids[target]
	if !okFrom || !okTo {
		return false
	}
	visited := map[uint32]struct{}{from: {}}
	for frontier := []uint32{from}; len(frontier) > 0; frontier = frontier[1:] {
		for _, r := range m.tab.post[posS][frontier[0]] {
			obj := m.tab.rows[r].ids[posO]
			if obj == to {
				return true
			}
			if _, seen := visited[obj]; seen || !m.tab.terms[obj].IsResource() {
				continue
			}
			visited[obj] = struct{}{}
			frontier = append(frontier, obj)
		}
	}
	return false
}

func sortTerms(ts []rdf.Term) {
	slices.SortFunc(ts, rdf.Term.Compare)
}
