package main

import (
	"fmt"
	"time"

	"repro/internal/base"
	"repro/internal/clinical"
	"repro/internal/mark"
	"repro/internal/trim"
)

// timedApp wraps a base application so a traced run sees the base layer's
// time as spans. It forwards ContentExtractor and ContextProvider, so the
// mark manager registers the same resolvers, and peek takes the same path,
// with and without the wrapper.
type timedApp struct {
	app base.Application
	ex  base.ContentExtractor
	cp  base.ContextProvider
	rec *recorder
	// delay is planted inside every base span by tests that check the
	// attribution moves only the base layer.
	delay time.Duration
}

var (
	_ base.Application      = (*timedApp)(nil)
	_ base.ContentExtractor = (*timedApp)(nil)
	_ base.ContextProvider  = (*timedApp)(nil)
)

func wrapApp(app base.Application, rec *recorder) (*timedApp, error) {
	ex, ok := app.(base.ContentExtractor)
	if !ok {
		return nil, fmt.Errorf("base app %s cannot extract content", app.Name())
	}
	cp, ok := app.(base.ContextProvider)
	if !ok {
		return nil, fmt.Errorf("base app %s provides no context", app.Name())
	}
	return &timedApp{app: app, ex: ex, cp: cp, rec: rec}, nil
}

func (t *timedApp) begin(op string) func(error) {
	sp := t.rec.start(op)
	if t.delay > 0 {
		time.Sleep(t.delay)
	}
	return sp.FinishErr
}

func (t *timedApp) Scheme() string { return t.app.Scheme() }
func (t *timedApp) Name() string   { return t.app.Name() }

func (t *timedApp) CurrentSelection() (a base.Address, err error) {
	done := t.begin("base.selection")
	defer func() { done(err) }()
	return t.app.CurrentSelection()
}

func (t *timedApp) GoTo(addr base.Address) (el base.Element, err error) {
	done := t.begin("base.goto")
	defer func() { done(err) }()
	return t.app.GoTo(addr)
}

func (t *timedApp) ExtractContent(addr base.Address) (s string, err error) {
	done := t.begin("base.extract")
	defer func() { done(err) }()
	return t.ex.ExtractContent(addr)
}

func (t *timedApp) ExtractContext(addr base.Address) (s string, err error) {
	done := t.begin("base.context")
	defer func() { done(err) }()
	return t.cp.ExtractContext(addr)
}

// wrappedMarks returns a fresh mark manager serving the environment's four
// base applications through timing wrappers.
func wrappedMarks(env *clinical.Environment, rec *recorder) (*mark.Manager, []*timedApp, error) {
	mm := mark.NewManager()
	var apps []*timedApp
	for _, app := range []base.Application{env.Sheets, env.XML, env.Notes, env.Pager} {
		w, err := wrapApp(app, rec)
		if err != nil {
			return nil, nil, err
		}
		if err := mm.RegisterApplication(w); err != nil {
			return nil, nil, err
		}
		apps = append(apps, w)
	}
	return mm, apps, nil
}

// timedBackend wraps a durability backend so a traced run sees each
// durable save as a wal span.
type timedBackend struct {
	trim.Backend
	rec *recorder
}

func (b timedBackend) Save() error {
	sp := b.rec.start("wal.save")
	err := b.Backend.Save()
	sp.FinishErr(err)
	return err
}
