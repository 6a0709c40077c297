package trim

import (
	"sort"

	"repro/internal/rdf"
)

// Per-predicate cardinality statistics, derived from the layout when they
// are read: a predicate's triple count is its posting length, and its
// distinct subjects and objects are counted over that posting list. They
// answer the planner's question — "how many rows will this pattern
// touch?" — per predicate instead of store-wide and feed the EXPLAIN
// estimated-selectivity line. Nothing is maintained on the write path.

// PredicateStats is one predicate's cardinality summary as reported by
// Stats: how many triples carry it, over how many distinct subjects and
// objects, and what fraction of the store a predicate-bound select would
// touch.
type PredicateStats struct {
	Predicate        string `json:"predicate"`
	Triples          int    `json:"triples"`
	DistinctSubjects int    `json:"distinct_subjects"`
	DistinctObjects  int    `json:"distinct_objects"`
	// Selectivity is Triples divided by the store size: the fraction of
	// the store a select bound only on this predicate matches.
	Selectivity float64 `json:"selectivity"`
}

// predicateStatsLocked renders the cardinality table sorted by predicate.
func (m *Manager) predicateStatsLocked() []PredicateStats {
	size := len(m.tab.rows)
	seen := m.tab.bitset()
	out := []PredicateStats{}
	for id, rows := range m.tab.post[posP] {
		if len(rows) == 0 {
			continue
		}
		ps := PredicateStats{
			Predicate:        m.tab.terms[id].Value(),
			Triples:          len(rows),
			DistinctSubjects: m.tab.distinct(rows, posS, seen),
			DistinctObjects:  m.tab.distinct(rows, posO, seen),
			Selectivity:      float64(len(rows)) / float64(size),
		}
		out = append(out, ps)
	}
	sort.Slice(out, func(i, j int) bool { return out[i].Predicate < out[j].Predicate })
	return out
}

// estimateLocked is the planner's cardinality estimate for a pattern:
// expected result rows and their fraction of the store. A bound predicate
// uses its exact statistics (triples, scaled down by the mean
// triples-per-subject/object when those positions are bound too); an
// unbound predicate falls back to the exact posting lengths the planner
// already consults. The estimate is exact for single-position patterns
// and a uniformity assumption beyond that.
func (m *Manager) estimateLocked(p rdf.Pattern) (rows int, selectivity float64) {
	size := len(m.tab.rows)
	if size == 0 {
		return 0, 0
	}
	est := size
	if !p.Predicate.IsZero() {
		list := m.tab.postings(posP, p.Predicate)
		if len(list) == 0 {
			return 0, 0
		}
		est = len(list)
		seen := m.tab.bitset()
		if !p.Subject.IsZero() {
			est = meanShare(est, m.tab.distinct(list, posS, seen))
		}
		if !p.Object.IsZero() {
			est = meanShare(est, m.tab.distinct(list, posO, seen))
		}
	} else {
		if !p.Subject.IsZero() {
			est = min(est, len(m.tab.postings(posS, p.Subject)))
		}
		if !p.Object.IsZero() {
			est = min(est, len(m.tab.postings(posO, p.Object)))
		}
	}
	return est, float64(est) / float64(size)
}

// meanShare is total/parts rounded to at least 1 while total is nonzero:
// the expected bucket share under uniformity, never estimating a present
// predicate at zero rows.
func meanShare(total, parts int) int {
	if total == 0 {
		return 0
	}
	share := total / parts
	if share < 1 {
		share = 1
	}
	return share
}
