package main

import (
	"fmt"
	"math/rand"

	"repro/internal/base/pdfdoc"
	"repro/internal/base/spreadsheet"
	"repro/internal/base/textdoc"
	"repro/internal/base/xmldoc"
	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/rdf"
	"repro/internal/slimpad"
)

// target is one base-layer element a scrap can be clipped from.
type target struct {
	patient int
	scheme  string
	med     int    // medication row, for spreadsheet targets
	lab     string // lab code, for xml targets
}

// selectIn drives the target's base application to the element, ready for
// mark creation.
func (t target) selectIn(env *clinical.Environment) error {
	p := env.Patients[t.patient]
	switch t.scheme {
	case spreadsheet.Scheme:
		return env.SelectMed(p, t.med)
	case xmldoc.Scheme:
		return env.SelectLab(p, t.lab)
	case textdoc.Scheme:
		return env.SelectPlanLine(p, 1)
	case pdfdoc.Scheme:
		return env.SelectImpression(p)
	}
	return fmt.Errorf("no target scheme %q", t.scheme)
}

// roundsLabs are the lab results a clinician clips for each patient on
// rounds.
var roundsLabs = []string{"Na", "K", "Cr", "WBC"}

// allLabs are every lab code the clinical generator reports.
var allLabs = []string{"Na", "K", "Cl", "HCO3", "WBC", "Hgb", "Plt", "BUN", "Cr"}

// targetsOf lists every clip target of a patient: one per medication row,
// one per lab code, the progress-note plan line and the imaging
// impression.
func targetsOf(env *clinical.Environment, patient int, labs []string) []target {
	var out []target
	for i := range env.Patients[patient].Meds {
		out = append(out, target{patient: patient, scheme: spreadsheet.Scheme, med: i})
	}
	for _, code := range labs {
		out = append(out, target{patient: patient, scheme: xmldoc.Scheme, lab: code})
	}
	return append(out, target{patient: patient, scheme: textdoc.Scheme}, target{patient: patient, scheme: pdfdoc.Scheme})
}

// roundsTargets is what a clinician clips for one patient on rounds: up
// to four medication rows and four labs, topped up with the plan line and
// the imaging impression when the patient has fewer medications. Every
// patient gets eight scraps, so the pad's size, and with it the cost of
// tree and find, does not vary with the seed.
func roundsTargets(env *clinical.Environment, patient int) []target {
	all := targetsOf(env, patient, roundsLabs)
	meds := len(env.Patients[patient].Meds)
	n := min(meds, 4)
	out := append([]target(nil), all[:n]...)
	out = append(out, all[meds:meds+len(roundsLabs)]...)
	return append(out, all[meds+len(roundsLabs):][:4-n]...)
}

// padScrap is the benchmark's record of one scrap it clipped: what the
// program must return for it.
type padScrap struct {
	id      rdf.Term
	bundle  rdf.Term
	target  target
	markID  string
	excerpt string
	name    string
}

// clip selects the target in its base application and clips it onto the
// bundle through SLIMPad, recording what the scrap must resolve to.
func clip(app *slimpad.App, env *clinical.Environment, marks *mark.Manager, bundle rdf.Term, t target, rng *rand.Rand) (*padScrap, error) {
	if err := t.selectIn(env); err != nil {
		return nil, err
	}
	s, err := app.ClipSelection(bundle, t.scheme, "", randPos(rng))
	if err != nil {
		return nil, err
	}
	hs := s.MarkHandles()
	if len(hs) != 1 {
		return nil, fmt.Errorf("clipped scrap %s has %d marks", s.ID().Value(), len(hs))
	}
	m, err := marks.Mark(hs[0].MarkID())
	if err != nil {
		return nil, err
	}
	return &padScrap{id: s.ID(), bundle: bundle, target: t, markID: m.ID, excerpt: m.Excerpt, name: s.ScrapName()}, nil
}

func randPos(rng *rand.Rand) slimpad.Coordinate {
	return slimpad.Coordinate{X: rng.Intn(800), Y: rng.Intn(600)}
}

// patientBundles creates one bundle per patient nested in the pad's root
// bundle.
func patientBundles(app *slimpad.App, env *clinical.Environment, root rdf.Term, rng *rand.Rand) ([]rdf.Term, error) {
	var out []rdf.Term
	for _, p := range env.Patients {
		b, err := app.DMI().CreateBundle(p.Name+" "+p.MRN, randPos(rng), 300, 200)
		if err != nil {
			return nil, err
		}
		if err := app.DMI().AddNestedBundle(root, b.ID()); err != nil {
			return nil, err
		}
		out = append(out, b.ID())
	}
	return out, nil
}
