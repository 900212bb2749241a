package ebid

import (
	"context"
	"fmt"
	"time"

	"repro/internal/core"
	"repro/internal/metrics"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

// WAR-served operations (static presentation data and session teardown).
const (
	OpHome       = "Home"
	OpBrowseMenu = "BrowseMenu"
	OpSellForm   = "SellForm"
	OpPutBidAuth = "PutBidAuth" // static login form page
	OpLogout     = "Logout"
)

// war is the web component: servlets that invoke the session components
// and format results. Static presentation data is an in-memory read-only
// file set (the paper keeps it on an Ext3FS filesystem, optionally
// mounted read-only).
type war struct {
	env    *core.Env
	static map[string]string
}

func newWARFactory() core.Factory {
	return func() core.Component { return &war{} }
}

// Init implements core.Component.
func (w *war) Init(env *core.Env) error {
	w.env = env
	w.static = map[string]string{
		OpHome:       "<html>eBid home page</html>",
		OpBrowseMenu: "<html>browse menu</html>",
		OpSellForm:   "<html>sell item form</html>",
		OpPutBidAuth: "<html>please log in to bid</html>",
	}
	return nil
}

// Stop implements core.Component.
func (w *war) Stop() error { return nil }

// Serve implements core.Component: the servlet dispatch. Every page,
// static or dynamic, is rendered into the request's body buffer.
func (w *war) Serve(ctx context.Context, call *core.Call) (any, error) {
	if static, ok := w.static[call.Op]; ok {
		page(call).s(static)
		return core.SlotResult, nil
	}
	if call.Op == OpLogout {
		store, err := sessionStore(w.env)
		if err != nil {
			return nil, err
		}
		if call.SessionID != "" {
			if err := store.Delete(call.SessionID); err != nil {
				return nil, err
			}
		}
		page(call).s("<html>logged out</html>")
		return core.SlotResult, nil
	}
	// Dynamic operations route to the session component of the same
	// name; the sub-invocation goes through the server's interceptor
	// pipeline, inherits this request's shepherd context and renders into
	// this request's body buffer.
	child := call.Child(call.Op, call.Args)
	res, err := w.env.Server.Invoke(ctx, call.Op, child)
	child.Release()
	return res, err
}

// App bundles a deployed eBid application with its resources.
type App struct {
	Server   *core.Server
	DB       *db.DB
	Sessions session.Store
	// Stats is the per-component latency/outcome accounting, collected
	// by an interceptor registered on the server.
	Stats   *metrics.InvocationStats
	warName string
}

// New builds a core.Server, deploys eBid on it, and returns the App.
// The clock argument supplies virtual time (may be nil for wall-clock).
// Invocation metrics run as an interceptor registered on the server.
func New(d *db.DB, sessions session.Store, clock func() time.Duration) (*App, error) {
	opts := []core.Option{
		core.WithResource(ResourceDB, d),
		core.WithResource(ResourceSessions, sessions),
		core.WithCostModel(CostModel{}),
	}
	if clock != nil {
		opts = append(opts, core.WithClock(clock))
	}
	srv := core.NewServer(opts...)
	stats := metrics.NewInvocationStats(clock)
	srv.Use(stats.Interceptor())
	app := &App{Server: srv, DB: d, Sessions: sessions, Stats: stats, warName: WAR}
	if err := srv.Deploy(Assemble()); err != nil {
		return nil, err
	}
	return app, nil
}

// Assemble returns the full eBid application descriptor set: 9 entity
// components, 17 stateless session components, and the WAR.
func Assemble() core.Application {
	app := core.Application{Name: "eBid"}
	app.Components = append(app.Components, entityDescriptors()...)
	app.Components = append(app.Components, sessionDescriptors()...)
	war := core.Descriptor{
		Name:    WAR,
		Kind:    core.Web,
		Factory: newWARFactory(),
	}
	for _, d := range sessionDescriptors() {
		war.Refs = append(war.Refs, d.Name)
	}
	app.Components = append(app.Components, war)
	return app
}

// Execute runs one end-user operation through the WAR and returns the
// response body: the call's Body buffer, emptied when the request starts
// and valid until the call is reused or released. A result other than
// core.SlotResult (only a fault's fabricated page) is formatted into the
// same buffer: a string as it is, anything else as fmt.Sprint would. The
// context is the request's shepherd: pass the HTTP request context from
// real front ends (cancellation propagates into the components) or
// context.Background() from simulation drivers.
func (a *App) Execute(ctx context.Context, call *core.Call) ([]byte, error) {
	if cap(call.Body) == 0 {
		call.Body = make([]byte, 0, 128) // fits every eBid page; a pooled call keeps it
	}
	call.Body = call.Body[:0]
	res, err := a.Server.Invoke(ctx, a.warName, call)
	if err != nil {
		return nil, err
	}
	if res != core.SlotResult {
		call.Body = fmt.Append(call.Body[:0], res)
	}
	return call.Body, nil
}
