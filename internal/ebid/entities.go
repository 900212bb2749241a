package ebid

import (
	"context"
	"errors"
	"fmt"

	"repro/internal/core"
	"repro/internal/store/db"
)

// ResourceDB and ResourceSessions are the well-known Env resource keys
// under which the application server exposes the persistence tier and the
// session store to components.
const (
	ResourceDB       = "ebid.db"
	ResourceSessions = "ebid.sessions"
)

// Entity operation names (the sub-operations session components invoke on
// entity components through the naming service).
const (
	opLoad    = "load"
	opCreate  = "create"
	opUpdate  = "update"
	opByIndex = "byIndex"
	opList    = "list"
	opNextID  = "next"
)

// ErrNotLoggedIn is surfaced when an operation requires session state
// that does not exist (e.g. lost in a process restart). Exported so the
// HTTP front end can answer it as a client-recoverable condition (log in
// again) rather than a server error — under crash-only operation a
// session lapse is a normal event, not a failure.
var ErrNotLoggedIn = errors.New("ebid: not logged in")

// entity is the generic entity component: a persistent application object
// whose instances map to rows of one table (container-managed
// persistence). Higher-level operations are performed on it by stateless
// session components.
type entity struct {
	table string
	db    *db.DB
	env   *core.Env
}

func newEntityFactory(table string) core.Factory {
	return func() core.Component { return &entity{table: table} }
}

// Init implements core.Component.
func (e *entity) Init(env *core.Env) error {
	d, ok := core.Resource[*db.DB](env, ResourceDB)
	if !ok {
		return fmt.Errorf("ebid: entity %s: no database resource", e.table)
	}
	e.db = d
	e.env = env
	return nil
}

// Stop implements core.Component.
func (e *entity) Stop() error { return nil }

// viewArgs returns a copy of the entity hop's typed arguments, taken once
// per Serve. A call without them (nil, or a nil *EntityArgs) reads as
// every argument absent.
func viewArgs(call *core.Call) EntityArgs {
	if a, _ := call.Args.(*EntityArgs); a != nil {
		return *a
	}
	return EntityArgs{}
}

// txFrom returns the caller-supplied transaction, or starts an
// auto-commit transaction (auto=true). Auto transactions are settled
// through finishTx; returning a flag instead of a settle closure keeps
// the per-call hot path free of the closure allocation.
func (e *entity) txFrom(caller *db.Tx) (tx *db.Tx, auto bool, err error) {
	if caller != nil {
		return caller, false, nil
	}
	t, err := e.db.Begin()
	if err != nil {
		return nil, false, err
	}
	return t, true, nil
}

// finishTx settles an auto-commit transaction: abort on failure, commit
// on success. Caller-supplied transactions pass through untouched. A
// transaction this goroutine settled itself goes back to the Tx pool;
// one finished under us (crash invalidation, µRB rollback) is left to
// the GC, since the finisher may still be touching it.
func finishTx(tx *db.Tx, auto bool, err error) error {
	if !auto {
		return err
	}
	if err != nil {
		if tx.Abort() == nil {
			tx.Recycle()
		}
		return err
	}
	if cerr := tx.Commit(); cerr != nil {
		return cerr
	}
	tx.Recycle()
	return nil
}

// Serve implements core.Component: the entity sub-operations.
func (e *entity) Serve(ctx context.Context, call *core.Call) (any, error) {
	v := viewArgs(call)
	tx, auto, err := e.txFrom(v.Tx)
	if err != nil {
		return nil, err
	}
	var res any
	switch call.Op {
	case opLoad:
		if !v.HasKey {
			return nil, finishTx(tx, auto, fmt.Errorf("ebid: %s load: missing key", e.table))
		}
		res, err = tx.Get(e.table, v.Key)
	case opCreate:
		if v.Row == nil {
			return nil, finishTx(tx, auto, fmt.Errorf("ebid: %s create: missing row", e.table))
		}
		if v.HasKey {
			err = tx.InsertWithKey(e.table, v.Key, v.Row)
			res = v.Key
		} else {
			res, err = tx.Insert(e.table, v.Row)
		}
	case opUpdate:
		if !v.HasKey {
			return nil, finishTx(tx, auto, fmt.Errorf("ebid: %s update: missing key", e.table))
		}
		if v.Row == nil {
			return nil, finishTx(tx, auto, fmt.Errorf("ebid: %s update: missing row", e.table))
		}
		err = tx.Update(e.table, v.Key, v.Row)
	case opByIndex:
		var keys []int64
		keys, err = tx.Lookup(e.table, v.Col, v.Val)
		if err == nil {
			// The caller reads the key list from the call's result slot,
			// skipping the []int64→any boxing.
			call.SetKeysResult(keys)
			res = core.SlotResult
		}
	case opList:
		limit := v.Limit
		if limit <= 0 {
			limit = 20
		}
		// The callers only count the rows, so the result is the count.
		n := 0
		err = tx.Scan(e.table, func(int64, db.Row) bool {
			n++
			return n < limit
		})
		res = n
	default:
		return nil, finishTx(tx, auto, fmt.Errorf("ebid: %s: unknown entity op %q", e.table, call.Op))
	}
	return res, finishTx(tx, auto, err)
}

// idManager is the IdentityManager entity: it generates the
// application-specific primary keys identifying rows that correspond to
// entity instances. Table 2's "corrupt primary keys" faults target this
// component's data handling.
type idManager struct {
	db  *db.DB
	env *core.Env
	// seqKeys caches the id_seq row key per kind (volatile instance
	// state, rebuilt on Init — hence restored by a µRB).
	seqKeys map[string]int64
}

func newIDManagerFactory() core.Factory {
	return func() core.Component { return &idManager{} }
}

// Init implements core.Component.
func (m *idManager) Init(env *core.Env) error {
	d, ok := core.Resource[*db.DB](env, ResourceDB)
	if !ok {
		return errors.New("ebid: IdentityManager: no database resource")
	}
	m.db = d
	m.env = env
	m.seqKeys = map[string]int64{}
	tx, err := d.Begin()
	if err != nil {
		// The database may be briefly down (crash-recovery window);
		// the cache is rebuilt lazily in that case.
		return nil
	}
	defer func() {
		if tx.Abort() == nil {
			tx.Recycle()
		}
	}()
	_ = tx.Scan(TblIDSeq, func(k int64, r db.Row) bool {
		if kind, ok := r["kind"].(string); ok {
			m.seqKeys[kind] = k
		}
		return true
	})
	return nil
}

// Stop implements core.Component.
func (m *idManager) Stop() error { return nil }

// Serve implements core.Component: op "next" allocates the next id for a
// kind, transactionally.
func (m *idManager) Serve(ctx context.Context, call *core.Call) (any, error) {
	if call.Op != opNextID {
		return nil, fmt.Errorf("ebid: IdentityManager: unknown op %q", call.Op)
	}
	v := viewArgs(call)
	kind := v.Kind
	if kind == "" {
		return nil, errors.New("ebid: IdentityManager: missing kind")
	}
	tx := v.Tx
	var err error
	if tx == nil {
		tx, err = m.db.Begin()
		if err != nil {
			return nil, err
		}
		defer func() {
			if !tx.Done() && tx.Commit() == nil {
				tx.Recycle()
			}
		}()
	}
	seqKey, ok := m.seqKeys[kind]
	if !ok {
		// Lazy rebuild after a recovery window.
		keys, err := tx.Lookup(TblIDSeq, "kind", kind)
		if err != nil || len(keys) == 0 {
			return nil, fmt.Errorf("ebid: IdentityManager: unknown kind %q", kind)
		}
		seqKey = keys[0]
		m.seqKeys[kind] = seqKey
	}
	// Lock-then-read: a plain Get would let two concurrent allocations
	// both observe the same counter and hand out duplicate ids.
	row, err := tx.GetForUpdate(TblIDSeq, seqKey)
	if err != nil {
		return nil, err
	}
	next := row["next"].(int64)
	// The row from Get is shared and immutable; bump the counter on a clone.
	upd := row.Clone()
	upd["next"] = next + 1
	if err := tx.Update(TblIDSeq, seqKey, upd); err != nil {
		return nil, err
	}
	return next, nil
}

// entityDescriptors returns the deployment descriptors for the nine
// entity components. The five EntityGroup members carry hard references
// to one another (container-spanning metadata relationships), which the
// server's transitive closure turns into the EntityGroup of Table 3.
func entityDescriptors() []core.Descriptor {
	entityFor := map[string]string{
		EntUser:      TblUsers,
		EntItem:      TblItems,
		EntBid:       TblBids,
		EntCategory:  TblCategories,
		EntRegion:    TblRegions,
		BuyNow:       TblBuys,
		OldItem:      TblOldItems,
		UserFeedback: TblFeedback,
	}
	txm := map[string]core.TxAttr{
		opLoad:    core.TxSupports,
		opCreate:  core.TxRequired,
		opUpdate:  core.TxRequired,
		opByIndex: core.TxSupports,
		opList:    core.TxSupports,
	}
	var out []core.Descriptor
	for _, name := range []string{EntUser, EntItem, EntBid, EntCategory, EntRegion, BuyNow, OldItem, UserFeedback} {
		d := core.Descriptor{
			Name:      name,
			Kind:      core.Entity,
			Factory:   newEntityFactory(entityFor[name]),
			TxMethods: txm,
		}
		if isEntityGroupMember(name) {
			// Chain the group members so their transitive closure is
			// the full EntityGroup: Bid→Item→User→Category→Region.
			switch name {
			case EntBid:
				d.HardRefs = []string{EntItem}
			case EntItem:
				d.HardRefs = []string{EntUser}
			case EntUser:
				d.HardRefs = []string{EntCategory}
			case EntCategory:
				d.HardRefs = []string{EntRegion}
			}
		}
		out = append(out, d)
	}
	out = append(out, core.Descriptor{
		Name:      IdentityManager,
		Kind:      core.Entity,
		Factory:   newIDManagerFactory(),
		TxMethods: map[string]core.TxAttr{opNextID: core.TxRequired},
	})
	return out
}
