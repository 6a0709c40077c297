package trim

import (
	"fmt"
	"time"

	"repro/internal/obs"
	"repro/internal/rdf"
)

// Query EXPLAIN makes the §6 "cost of interpreting manipulations" claim
// measurable per query instead of only in aggregate: every read path
// (selection, reachability view, predicate path) can report which index
// the planner chose, how many candidate triples it scanned, how many
// matched, and how long the walk took. Explains of queries that exceed
// the slow-op threshold land in obs.DefaultSlowOps with the full EXPLAIN
// line as their detail, so /debug/slowops answers "which query was slow
// and why" on a live store.

// Explain describes how one TRIM query executed.
type Explain struct {
	// Op is the query kind: "select", "view", or "path".
	Op string `json:"op"`
	// Query renders the query arguments (pattern, root, or path).
	Query string `json:"query"`
	// Index is the planner's choice: "subject", "predicate", "object", or
	// "scan" (no position bound — full store scan). Views and paths always
	// walk the subject (or object, for inverse paths) index.
	Index string `json:"index"`
	// Candidates is the number of triples examined: the chosen index
	// bucket's size for an indexed select, the store size for a scan, or
	// the edges touched during a view/path walk.
	Candidates int `json:"candidates"`
	// Matched is the result size: triples for select/view, terms for path.
	Matched int `json:"matched"`
	// Observers is the number of registered observers — the notification
	// fan-out every mutation to the scanned region would incur.
	Observers int `json:"observers"`
	// StoreSize and Generation snapshot the store the query ran against.
	StoreSize  int    `json:"store_size"`
	Generation uint64 `json:"generation"`
	// EstRows and EstSelectivity are the planner's pre-scan cardinality
	// estimate from the per-predicate statistics (see estimateLocked):
	// expected result rows and their fraction of the store. Comparing
	// EstRows against Matched shows how good the estimate was.
	EstRows        int     `json:"est_rows"`
	EstSelectivity float64 `json:"est_selectivity"`
	// WallNS is the query's wall time in nanoseconds.
	WallNS int64 `json:"wall_ns"`
}

// Wall returns the query's wall time.
func (e Explain) Wall() time.Duration { return time.Duration(e.WallNS) }

// String renders the explain as one line of key=value fields.
func (e Explain) String() string {
	return fmt.Sprintf("op=%s query=%q index=%s candidates=%d matched=%d est_rows=%d est_selectivity=%.4f observers=%d store=%d generation=%d wall=%s",
		e.Op, e.Query, e.Index, e.Candidates, e.Matched, e.EstRows, e.EstSelectivity,
		e.Observers, e.StoreSize, e.Generation, e.Wall().Round(time.Microsecond))
}

// String names the planner's index choice for EXPLAIN output.
func (c indexChoice) String() string {
	switch c {
	case indexSubject:
		return "subject"
	case indexPredicate:
		return "predicate"
	case indexObject:
		return "object"
	default:
		return "scan"
	}
}

// journal feeds the slow-op journal; the EXPLAIN line is built only when
// the query actually exceeded the threshold, keeping fast queries free of
// the formatting cost.
func (e Explain) journal(start time.Time) {
	if obs.DefaultSlowOps.Slow(e.Wall()) {
		obs.DefaultSlowOps.Observe("trim."+e.Op, e.String(), start, e.Wall(), nil)
	}
}

// explainLocked starts the EXPLAIN of a query that ran under the held
// lock; the caller adds Query, WallNS, and for selects the estimate.
func (m *Manager) explainLocked(op string, choice indexChoice, candidates, matched int) Explain {
	return Explain{
		Op:         op,
		Index:      choice.String(),
		Candidates: candidates,
		Matched:    matched,
		Observers:  len(m.observers),
		StoreSize:  len(m.tab.rows),
		Generation: m.generation,
	}
}

// SelectExplain is Select plus an execution report. It records the same
// metrics as Select and journals slow queries with their EXPLAIN line.
func (m *Manager) SelectExplain(p rdf.Pattern) ([]rdf.Triple, Explain) {
	start := time.Now()
	m.mu.RLock()
	out, choice, candidates := m.selectLocked(p)
	e := m.explainLocked("select", choice, candidates, len(out))
	e.EstRows, e.EstSelectivity = m.estimateLocked(p)
	m.mu.RUnlock()
	e.Query = p.String()
	e.WallNS = int64(time.Since(start))
	mSelectNS.Observe(e.WallNS)
	mSelectTotal.Inc()
	recordSelectShape(p, e.Index)
	e.journal(start)
	return out, e
}

// ViewExplain is View plus an execution report: Candidates counts the
// edges examined during the reachability walk, Matched the triples in the
// resulting view.
func (m *Manager) ViewExplain(root rdf.Term) (*rdf.Graph, Explain) {
	start := time.Now()
	m.mu.RLock()
	out, candidates := m.viewLocked(root, nil)
	e := m.explainLocked("view", indexSubject, candidates, out.Len())
	m.mu.RUnlock()
	e.Query = root.String()
	e.WallNS = int64(time.Since(start))
	mViewNS.Observe(e.WallNS)
	mViewTotal.Inc()
	recordViewShape()
	e.journal(start)
	return out, e
}

// PathExplain is Path plus an execution report: Candidates counts the
// edges examined across every hop, Matched the terms reached at the end.
func (m *Manager) PathExplain(start []rdf.Term, predicates ...rdf.Term) ([]rdf.Term, Explain) {
	began := time.Now()
	m.mu.RLock()
	out, candidates := m.pathLocked(start, predicates)
	e := m.explainLocked("path", indexSubject, candidates, len(out))
	m.mu.RUnlock()
	var q string
	for _, s := range start {
		q += s.String() + " "
	}
	for i, p := range predicates {
		if i > 0 {
			q += "/"
		}
		q += p.String()
	}
	e.Query = q
	e.WallNS = int64(time.Since(began))
	recordPathShape(predicates, false)
	e.journal(began)
	return out, e
}
