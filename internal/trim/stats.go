package trim

import (
	"fmt"

	"repro/internal/obs"
)

// Stats summarizes the contents of the store, used by cmd/trimq and the
// space-overhead experiments (T1/T3 in DESIGN.md).
type Stats struct {
	Triples            int `json:"triples"`
	DistinctSubjects   int `json:"distinct_subjects"`
	DistinctPredicates int `json:"distinct_predicates"`
	DistinctObjects    int `json:"distinct_objects"`
	LiteralObjects     int `json:"literal_objects"`
	ResourceObjects    int `json:"resource_objects"`
	// ApproxBytes estimates the in-memory footprint of the term text: the
	// sum of the lengths of all term values and datatypes. Index overhead
	// is excluded; the figure is used as a portable proxy for the paper's
	// "space efficiency" trade-off discussion (§6).
	ApproxBytes int `json:"approx_bytes"`
	// IndexSPO/IndexPOS/IndexOSP are the total entry counts of the
	// subject, predicate, and object posting lists (each entry is one
	// triple in one term's list). In a consistent store each equals
	// Triples.
	IndexSPO int `json:"index_spo"`
	IndexPOS int `json:"index_pos"`
	IndexOSP int `json:"index_osp"`
	// Generation is the store's mutation counter at the time of the call.
	Generation uint64 `json:"generation"`
	// Predicates is the per-predicate cardinality table (triples, distinct
	// subjects/objects, selectivity), sorted by predicate. Triple counts
	// are posting lengths; the distinct counts walk each predicate's
	// posting list once.
	Predicates []PredicateStats `json:"predicates"`
	// Locks is the contention profile of the store mutex (wait/hold
	// quantiles, acquisition and contended counts per mode), taken from
	// the process-wide tracked-lock table. Empty when no tracked lock has
	// registered under the store's name yet.
	Locks []obs.LockStats `json:"locks,omitempty"`
	// Space is the deep space accountant's report (space.go): string-byte
	// duplication, per-predicate byte attribution, and the bytes the
	// layout uses, computed under the same lock.
	Space SpaceStats `json:"space"`
}

// Stats computes current statistics in one pass over the dictionary
// under a read lock; only the per-predicate distinct counts walk rows.
func (m *Manager) Stats() Stats {
	m.mu.RLock()
	defer m.mu.RUnlock()

	mStatsTotal.Inc()
	s := Stats{
		Triples:    len(m.tab.rows),
		Generation: m.generation,
		Predicates: m.predicateStatsLocked(),
		Space:      m.spaceLocked(),
	}
	for id, t := range m.tab.terms {
		subj, pred, obj := len(m.tab.post[posS][id]), len(m.tab.post[posP][id]), len(m.tab.post[posO][id])
		s.IndexSPO += subj
		s.IndexPOS += pred
		s.IndexOSP += obj
		s.DistinctSubjects += min(subj, 1)
		s.DistinctPredicates += min(pred, 1)
		s.DistinctObjects += min(obj, 1)
		if t.IsLiteral() {
			s.LiteralObjects += obj
		} else {
			s.ResourceObjects += obj
		}
		s.ApproxBytes += int(termStringBytes(t)) * (subj + pred + obj)
	}
	if ls, ok := obs.LockProfile(obs.LockTrimStore); ok {
		s.Locks = []obs.LockStats{ls}
	}
	return s
}

// String renders the stats in a one-line human-readable form. New fields
// are appended so existing consumers of the prefix keep parsing.
func (s Stats) String() string {
	return fmt.Sprintf("triples=%d subjects=%d predicates=%d objects=%d (literals=%d resources=%d) approx_bytes=%d spo=%d pos=%d osp=%d generation=%d",
		s.Triples, s.DistinctSubjects, s.DistinctPredicates, s.DistinctObjects,
		s.LiteralObjects, s.ResourceObjects, s.ApproxBytes,
		s.IndexSPO, s.IndexPOS, s.IndexOSP, s.Generation)
}
