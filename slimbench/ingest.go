package main

import (
	"fmt"
	"math/rand"
	"path/filepath"
	"time"

	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/rdf"
	"repro/internal/slimpad"
	"repro/internal/trim"
)

// ingest is durable pad editing on the WAL backend: the only workload that
// reaches internal/wal and the commit path. It writes through the DMI like
// rounds, but every gesture is followed by App.SaveWith, one fsynced
// commit, on both sides of any comparison. Marks are never discarded here:
// mark.Manager.Remove is not persisted (SaveTo leaves a removed mark's
// triples in place and LoadFrom brings the mark back), so every SaveWith
// rewrites every mark ever clipped; a clip/discard gesture joins the mix in
// the change that fixes that.
var ingestSpec = spec{
	name:    "ingest",
	clients: 1,
	mix: []opClass{
		{"move", 30}, {"rename", 20}, {"bundle", 20}, {"note", 15}, {"link", 15},
	},
	rootLayer: "slimpad",
	setupRuns: 3,
	tracedOps: 300,
	warmOps:   50,
	build:     newIngest,
}

// The pad: 8 patients with 6 clipped scraps each, and their marks. Every
// SaveWith rewrites every mark, so the gesture's cost grows with the pad;
// at 48 marks a 25 s window holds about 6000 gestures and five WAL
// compaction cycles, enough for a steady p99 (at 200 marks it held about
// 1600 gestures and one or two compactions, and p99 spread 15-23% across
// seeds on a 2-vCPU machine).
const (
	ingestPatients = 8
	ingestDays     = 3
	ingestScraps   = 48
)

const (
	iMove = iota
	iRename
	iBundle
	iNote
	iLink
)

type ingest struct {
	rec     *recorder
	env     *clinical.Environment
	path    string // the pad's WAL
	bundles []rdf.Term
	scraps  []*padScrap

	// Live state, replaced by every setup.
	app     *slimpad.App
	wal     *trim.WALStore
	backend timedBackend
	replay  []float64 // seconds per WAL open during setup
	note    *noteRef
	link    *[2]rdf.Term
}

type noteRef struct {
	scrap rdf.Term
	text  string
}

// newIngest builds the pad before the timer, one durable commit per clip.
func newIngest(cfg config, rec *recorder) (workload, error) {
	rng := rand.New(rand.NewSource(cfg.seed))
	env, err := clinical.NewEnvironmentHistory(cfg.seed, ingestPatients, ingestDays)
	if err != nil {
		return nil, err
	}
	i := &ingest{rec: rec, env: env, path: filepath.Join(cfg.dir, "pad.wal")}
	marks, _, err := wrappedMarks(env, rec)
	if err != nil {
		return nil, err
	}
	app, err := slimpad.NewApp(marks)
	if err != nil {
		return nil, err
	}
	ws, err := trim.OpenWAL(app.DMI().Store().Trim(), i.path, trim.WALOptions{})
	if err != nil {
		return nil, err
	}
	if err := i.buildPad(app, marks, ws, rng); err != nil {
		ws.Close()
		return nil, err
	}
	return i, ws.Close()
}

func (i *ingest) buildPad(app *slimpad.App, marks *mark.Manager, ws *trim.WALStore, rng *rand.Rand) error {
	// The fresh store already holds the model; compacting makes that
	// initial state durable before the first clip is committed.
	if err := ws.Compact(); err != nil {
		return err
	}
	_, root, err := app.NewPad("ICU handoff")
	if err != nil {
		return err
	}
	if i.bundles, err = patientBundles(app, i.env, root.ID(), rng); err != nil {
		return err
	}
	if err := app.SaveWith(ws); err != nil {
		return err
	}
	for n := 0; n < ingestScraps; n++ {
		p := n % ingestPatients
		ts := ingestTargets(i.env, p)
		s, err := clip(app, i.env, marks, i.bundles[p], ts[(n/ingestPatients)%len(ts)], rng)
		if err != nil {
			return err
		}
		i.scraps = append(i.scraps, s)
		if err := app.SaveWith(ws); err != nil {
			return err
		}
	}
	return nil
}

// ingestTargets is the clip cycle of one patient: the first two
// medication rows (every patient has at least two), then the labs, the
// plan line and the imaging impression. Taking the same kinds for every
// patient keeps the pad's composition, and with it the bytes each save
// rewrites, from varying with the seed.
func ingestTargets(env *clinical.Environment, patient int) []target {
	all := targetsOf(env, patient, allLabs)
	return append(all[:2:2], all[len(env.Patients[patient].Meds):]...)
}

func (i *ingest) params() string {
	return fmt.Sprintf("patients=%d lab_days=%d scraps=%d backend=wal compact_every=%d flush=SaveWith-per-gesture",
		ingestPatients, ingestDays, ingestScraps, trim.DefaultCompactEvery)
}

// setup reopens the pad's WAL into a fresh app: recovery (snapshot load
// plus log replay) and the DMI and mark rebind.
func (i *ingest) setup() (time.Duration, error) {
	if i.wal != nil {
		if err := i.wal.Close(); err != nil {
			return 0, err
		}
		i.wal = nil
	}
	marks, _, err := wrappedMarks(i.env, i.rec)
	if err != nil {
		return 0, err
	}
	app, err := slimpad.NewApp(marks)
	if err != nil {
		return 0, err
	}
	t0 := time.Now()
	b, err := trim.OpenBackend(trim.BackendWAL, app.DMI().Store().Trim(), i.path)
	if err != nil {
		return 0, err
	}
	i.replay = append(i.replay, time.Since(t0).Seconds())
	ws, ok := b.(*trim.WALStore)
	if !ok {
		b.Close()
		return 0, fmt.Errorf("wal backend is a %T", b)
	}
	if _, err := app.LoadWith(b); err != nil {
		b.Close()
		return 0, err
	}
	i.app, i.wal, i.backend = app, ws, timedBackend{Backend: ws, rec: i.rec}
	i.note, i.link = nil, nil
	return time.Since(t0), nil
}

func (i *ingest) triples() int { return i.app.DMI().Store().Trim().Len() }

func (i *ingest) op(cl *client, class int) error {
	if err := i.gesture(cl, class); err != nil {
		return err
	}
	return i.app.SaveWith(i.backend)
}

func (i *ingest) gesture(cl *client, class int) error {
	d := i.app.DMI()
	scrap := func() rdf.Term { return i.scraps[cl.rng.Intn(len(i.scraps))].id }
	cl.seq++
	switch class {
	case iMove:
		return d.MoveScrap(scrap(), randPos(cl.rng))
	case iRename:
		return d.RenameScrap(scrap(), fmt.Sprintf("scrap %d.%d", cl.id, cl.seq))
	case iBundle:
		b := i.bundles[cl.rng.Intn(len(i.bundles))]
		if cl.rng.Intn(2) == 0 {
			return d.MoveBundle(b, randPos(cl.rng))
		}
		return d.ResizeBundle(b, 200+cl.rng.Intn(200), 100+cl.rng.Intn(200))
	case iNote:
		// Each note gesture removes the previous gesture's note and adds a
		// new one, so notes do not accumulate.
		if i.note != nil {
			if err := d.RemoveScrapNote(i.note.scrap, i.note.text); err != nil {
				return err
			}
			i.note = nil
		}
		n := &noteRef{scrap: scrap(), text: fmt.Sprintf("recheck at %02d:00 (%d)", cl.rng.Intn(24), cl.seq)}
		if err := d.AnnotateScrap(n.scrap, n.text); err != nil {
			return err
		}
		i.note = n
	case iLink:
		if i.link != nil {
			if err := d.UnlinkScraps(i.link[0], i.link[1]); err != nil {
				return err
			}
			i.link = nil
		}
		from, to := scrap(), scrap()
		for to == from {
			to = scrap()
		}
		if err := d.LinkScraps(from, to); err != nil {
			return err
		}
		i.link = &[2]rdf.Term{from, to}
	}
	return nil
}

// verify closes the pad, reopens it into a fresh app and requires the
// recovered triples and marks to equal the live ones.
func (i *ingest) verify() []string {
	live := i.app.DMI().Store().Trim()
	liveTriples := live.Select(rdf.P(rdf.Zero, rdf.Zero, rdf.Zero))
	liveMarks := i.app.Marks().Marks()
	err := i.wal.Close()
	i.wal = nil
	if err != nil {
		return []string{"close: " + err.Error()}
	}
	marks, _, err := wrappedMarks(i.env, i.rec)
	if err != nil {
		return []string{err.Error()}
	}
	app, err := slimpad.NewApp(marks)
	if err != nil {
		return []string{err.Error()}
	}
	b, err := trim.OpenBackend(trim.BackendWAL, app.DMI().Store().Trim(), i.path)
	if err != nil {
		return []string{"reopen: " + err.Error()}
	}
	defer b.Close()
	if _, err := app.LoadWith(b); err != nil {
		return []string{"reload: " + err.Error()}
	}
	var probs []string
	got := app.DMI().Store().Trim()
	if got.Len() != len(liveTriples) {
		probs = append(probs, fmt.Sprintf("reopened store has %d triples, live had %d", got.Len(), len(liveTriples)))
	}
	for _, t := range liveTriples {
		if !got.Has(t) {
			probs = append(probs, fmt.Sprintf("reopened store lacks %s", t))
			break
		}
	}
	gotMarks := marks.Marks()
	if len(gotMarks) != len(liveMarks) {
		probs = append(probs, fmt.Sprintf("reopened app has %d marks, live had %d", len(gotMarks), len(liveMarks)))
	} else {
		for k := range liveMarks {
			if gotMarks[k] != liveMarks[k] {
				probs = append(probs, fmt.Sprintf("reopened mark %s differs from the live one", liveMarks[k].ID))
				break
			}
		}
	}
	return probs
}

func (i *ingest) ladder(l *ladder) error {
	if err := padLadder(l, i.app, i.env, i.scraps, i.bundles); err != nil {
		return err
	}
	compact, err := l.median(5, func(int) error { return i.wal.Compact() })
	if err != nil {
		return err
	}
	l.set("wal.compact_ms", float64(compact)/1e6)
	l.set("wal.replay_s", medianF(i.replay))
	return nil
}

func (i *ingest) close() error {
	if i.wal == nil {
		return nil
	}
	err := i.wal.Close()
	i.wal = nil
	return err
}
