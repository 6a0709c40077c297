package main

import (
	"fmt"
	"math/rand"
	"strings"
	"time"

	"repro/internal/base"
	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/metamodel"
	"repro/internal/rdf"
	"repro/internal/slim"
	"repro/internal/slimpad"
)

// rounds is one clinician's SLIMPad session on an ICU census, held in
// memory. Every gesture crosses slimpad, slim and trim; open and peek also
// cross mark and base; the WAL is never touched. tree and find fan out
// into one DMI read per scrap, so a fan-out fix moves ops_per_s, and a
// point-path fix moves latency_p50_us.
var roundsSpec = spec{
	name:    "rounds",
	clients: 1,
	mix: []opClass{
		{"open", 30}, {"peek", 20}, {"move", 15}, {"reclip", 30}, {"find", 3}, {"tree", 2},
	},
	rootLayer: "slimpad",
	setupRuns: 9,
	tracedOps: 3000,
	warmOps:   300,
	build:     func(cfg config, rec *recorder) (workload, error) { return &rounds{cfg: cfg, rec: rec}, nil },
}

const (
	roundsPatients = 20
	roundsDays     = 3
)

const (
	rOpen = iota
	rPeek
	rMove
	rReclip
	rFind
	rTree
)

type rounds struct {
	cfg     config
	rec     *recorder
	env     *clinical.Environment
	marks   *mark.Manager
	apps    []*timedApp
	app     *slimpad.App
	pad     rdf.Term
	bundles []rdf.Term
	scraps  []*padScrap // oldest clip first
	needles []string
}

func (r *rounds) params() string {
	return fmt.Sprintf("patients=%d lab_days=%d scraps_per_patient=8", roundsPatients, roundsDays)
}

// setup builds the base documents and the pad through the DMI: a pad with
// one bundle per patient and eight scraps in each (see roundsTargets).
func (r *rounds) setup() (time.Duration, error) {
	start := time.Now()
	rng := rand.New(rand.NewSource(r.cfg.seed))
	env, err := clinical.NewEnvironmentHistory(r.cfg.seed, roundsPatients, roundsDays)
	if err != nil {
		return 0, err
	}
	marks, apps, err := wrappedMarks(env, r.rec)
	if err != nil {
		return 0, err
	}
	app, err := slimpad.NewApp(marks)
	if err != nil {
		return 0, err
	}
	pad, root, err := app.NewPad("ICU rounds")
	if err != nil {
		return 0, err
	}
	bundles, err := patientBundles(app, env, root.ID(), rng)
	if err != nil {
		return 0, err
	}
	var scraps []*padScrap
	needles := map[string]bool{}
	for i, p := range env.Patients {
		for _, t := range roundsTargets(env, i) {
			s, err := clip(app, env, marks, bundles[i], t, rng)
			if err != nil {
				return 0, err
			}
			scraps = append(scraps, s)
		}
		for _, m := range p.Meds {
			needles[m.Drug] = true
		}
	}
	*r = rounds{cfg: r.cfg, rec: r.rec, env: env, marks: marks, apps: apps, app: app, pad: pad.ID(),
		bundles: bundles, scraps: scraps, needles: sortedKeys(needles)}
	return time.Since(start), nil
}

func (r *rounds) triples() int { return r.app.DMI().Store().Trim().Len() }

func (r *rounds) op(cl *client, class int) error {
	switch class {
	case rOpen:
		s := r.scraps[cl.rng.Intn(len(r.scraps))]
		el, err := r.app.OpenScrap(s.id)
		if err != nil {
			return err
		}
		if el.Content != s.excerpt {
			return wrongf("open %s: content %q, mark excerpt %q", s.id.Value(), el.Content, s.excerpt)
		}
	case rPeek:
		s := r.scraps[cl.rng.Intn(len(r.scraps))]
		content, err := r.app.PeekScrap(s.id)
		if err != nil {
			return err
		}
		if content != s.excerpt {
			return wrongf("peek %s: content %q, mark excerpt %q", s.id.Value(), content, s.excerpt)
		}
	case rMove:
		s := r.scraps[cl.rng.Intn(len(r.scraps))]
		return r.app.DMI().MoveScrap(s.id, randPos(cl.rng))
	case rReclip:
		return r.reclip(cl)
	case rFind:
		needle := r.needles[cl.rng.Intn(len(r.needles))]
		got, err := r.app.DMI().FindScraps(needle)
		if err != nil {
			return err
		}
		want := 0
		for _, s := range r.scraps {
			if strings.Contains(strings.ToLower(s.name), strings.ToLower(needle)) {
				want++
			}
		}
		if len(got) != want {
			return wrongf("find %q: %d scraps, want %d", needle, len(got), want)
		}
	case rTree:
		out, err := r.app.Tree(r.pad)
		if err != nil {
			return err
		}
		// The pad line, the root bundle, one line per patient bundle and
		// one per scrap label line; rounds adds no notes or links.
		want := 2 + len(r.bundles)
		for _, s := range r.scraps {
			want += 1 + strings.Count(s.name, "\n")
		}
		if got := strings.Count(out, "\n"); got != want {
			return wrongf("tree: %d lines, want %d", got, want)
		}
	}
	return nil
}

// reclip deletes the oldest scrap with its mark and clips the same element
// again, so the pad keeps its shape and every create is paired with a
// remove.
func (r *rounds) reclip(cl *client) error {
	old := r.scraps[0]
	if err := r.app.DMI().DeleteScrap(old.id); err != nil {
		return err
	}
	r.scraps = r.scraps[1:]
	if !r.marks.Remove(old.markID) {
		return wrongf("reclip: mark %s of scrap %s was already gone", old.markID, old.id.Value())
	}
	s, err := clip(r.app, r.env, r.marks, old.bundle, old.target, cl.rng)
	if err != nil {
		return err
	}
	r.scraps = append(r.scraps, s)
	if s.excerpt != old.excerpt {
		return wrongf("reclip %s: excerpt %q, was %q", s.id.Value(), s.excerpt, old.excerpt)
	}
	return nil
}

func (r *rounds) verify() []string {
	probs, err := r.app.Check()
	if err != nil {
		probs = append(probs, "check: "+err.Error())
	}
	if n := r.marks.Len(); n != len(r.scraps) {
		probs = append(probs, fmt.Sprintf("mark manager holds %d marks for %d scraps", n, len(r.scraps)))
	}
	if n := len(r.app.DMI().Store().Trim().Subjects(rdf.RDFType, rdf.IRI(metamodel.ConstructScrap))); n != len(r.scraps) {
		probs = append(probs, fmt.Sprintf("store holds %d scraps, want %d", n, len(r.scraps)))
	}
	return probs
}

func (r *rounds) ladder(l *ladder) error {
	return padLadder(l, r.app, r.env, r.scraps, r.bundles)
}

func (r *rounds) close() error { return nil }

// padLadder times the pad layers' public entry points one at a time on the
// fixture's scraps: slimpad open, the generic DMI read, mark resolution
// and extraction, the base application's GoTo, and TRIM select and view.
func padLadder(l *ladder, app *slimpad.App, env *clinical.Environment, scraps []*padScrap, bundles []rdf.Term) error {
	const n = 2001
	s := func(i int) *padScrap { return scraps[i%len(scraps)] }
	store := app.DMI().Store()
	model, ok := store.Model(metamodel.ExtendedBundleScrapModelID)
	if !ok {
		return fmt.Errorf("pad store lacks the extended Bundle-Scrap model")
	}
	g, err := slim.GenerateDMI(store, model)
	if err != nil {
		return err
	}
	marks := app.Marks()
	raw := map[string]base.Application{
		env.Sheets.Scheme(): env.Sheets, env.XML.Scheme(): env.XML,
		env.Notes.Scheme(): env.Notes, env.Pager.Scheme(): env.Pager,
	}
	tm := store.Trim()
	steps := []struct {
		name string
		f    func(i int) error
	}{
		{"slimpad.open_us", func(i int) error { _, err := app.OpenScrap(s(i).id); return err }},
		{"slim.get_us", func(i int) error { _, err := g.Get(s(i).id); return err }},
		{"mark.resolve_us", func(i int) error { _, err := marks.Resolve(s(i).markID); return err }},
		{"mark.extract_us", func(i int) error { _, err := marks.ExtractContent(s(i).markID); return err }},
		{"base.goto_us", func(i int) error {
			m, err := marks.Mark(s(i).markID)
			if err != nil {
				return err
			}
			_, err = raw[m.Scheme()].GoTo(m.Address)
			return err
		}},
		{"trim.select_s_us", func(i int) error { tm.Select(rdf.P(s(i).id, rdf.Zero, rdf.Zero)); return nil }},
		{"trim.view_us", func(i int) error { tm.View(bundles[i%len(bundles)]); return nil }},
	}
	for _, st := range steps {
		if err := l.time(st.name, n, st.f); err != nil {
			return err
		}
	}
	// The DMI's reads are selects by subject; their EXPLAIN gives the rows
	// examined per row returned on the pad workloads.
	var cand, matched int
	for i := 0; i < len(scraps); i++ {
		_, e := tm.SelectExplain(rdf.P(s(i).id, rdf.Zero, rdf.Zero))
		cand += e.Candidates
		matched += e.Matched
	}
	l.set("trim.rows_examined_per_returned", ratio(float64(cand), float64(matched)))
	return nil
}
