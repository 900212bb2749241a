package ebid

import (
	"context"
	"errors"
	"fmt"
	"strconv"

	"repro/internal/core"
	"repro/internal/store/db"
	"repro/internal/store/session"
)

// invokeEntity performs an inter-component call through the server's
// invocation pipeline, deriving a child call so the whole request shares
// one shepherd: the entity hop inherits this request's context, and a
// kill or lease expiry cancels every hop at once.
func invokeEntity(ctx context.Context, env *core.Env, call *core.Call, entityName, op string, args *EntityArgs) (any, error) {
	child := call.Child(op, args)
	res, err := env.Server.Invoke(ctx, entityName, child)
	// Recycle the child and its typed args, but only if the child was not
	// retained by a kill (Release refuses and reports false in that case —
	// the args then stay reachable from the retained call).
	if child.Release() {
		args.release()
	}
	return res, err
}

// invokeEntityKeys is invokeEntity for the opByIndex sub-operation: the
// entity deposits its key list in the child call's typed result slot, so
// the slice comes back without being boxed through `any`. A result a
// fault fabricated in place of the entity's reads as no keys.
func invokeEntityKeys(ctx context.Context, env *core.Env, call *core.Call, entityName string, args *EntityArgs) ([]int64, error) {
	child := call.Child(opByIndex, args)
	_, err := env.Server.Invoke(ctx, entityName, child)
	keys, _ := child.KeysResult()
	if child.Release() {
		args.release()
	}
	return keys, err
}

// opArgs returns a copy of the call's operation arguments. A call without
// them (nil, or a nil *OpArgs) reads as every argument absent.
func opArgs(call *core.Call) OpArgs {
	if a, _ := call.Args.(*OpArgs); a != nil {
		return *a
	}
	return OpArgs{}
}

// orFirst defaults an absent (zero) or invalid id argument to 1, the
// first row of its table.
func orFirst(id int64) int64 {
	if id <= 0 {
		return 1
	}
	return id
}

// sessionStore fetches the session store resource.
func sessionStore(env *core.Env) (session.Store, error) {
	s, ok := core.Resource[session.Store](env, ResourceSessions)
	if !ok {
		return nil, errNoSessionStore
	}
	return s, nil
}

// loadSession reads the caller's session; a missing session surfaces as
// ErrNotLoggedIn (the "prompted to log in when already logged in" symptom
// end users see after session loss).
func loadSession(env *core.Env, call *core.Call) (*session.Session, session.Store, error) {
	store, err := sessionStore(env)
	if err != nil {
		return nil, nil, err
	}
	if call.SessionID == "" {
		return nil, nil, ErrNotLoggedIn
	}
	s, err := store.Read(call.SessionID)
	if err != nil {
		return nil, nil, fmt.Errorf("%w: %v", ErrNotLoggedIn, err)
	}
	if s.UserID <= 0 {
		// Corrupted (nulled or invalidated) session data.
		return nil, nil, fmt.Errorf("ebid: session corrupt: bad userID %d", s.UserID)
	}
	return s, store, nil
}

// sessionComponent implements one end-user operation as a stateless
// session component: its Serve delegates to the op function.
type sessionComponent struct {
	name string
	op   func(ctx context.Context, env *core.Env, call *core.Call) (any, error)
	env  *core.Env
}

func (s *sessionComponent) Init(env *core.Env) error { s.env = env; return nil }
func (s *sessionComponent) Stop() error              { return nil }
func (s *sessionComponent) Serve(ctx context.Context, call *core.Call) (any, error) {
	return s.op(ctx, s.env, call)
}

// ErrNoItemSelected is a commit point (CommitBid, CommitBuyNow) reached by
// a session that holds no MakeBid or BuyNow: the client's state, not a
// fault of the server. It is what a user sees whose session moved to
// another backend between the two steps, or who replays a commit.
var ErrNoItemSelected = errors.New("no item selected")

// Pre-built hot-path errors: these branches fire on every faulty or
// misrouted request under injection campaigns, so they must not allocate
// (fmt.Errorf/errors.New with no dynamic operands build the same string
// every time).
var (
	errNoDatabase       = errors.New("ebid: no database resource")
	errNoSessionStore   = errors.New("ebid: no session store resource")
	errTxAbortedInRecov = errors.New("ebid: transaction aborted during recovery")
	errAuthBadUserID    = errors.New("ebid: Authenticate: bad user id")
	errBidNoItem        = fmt.Errorf("ebid: CommitBid: %w", ErrNoItemSelected)
	errBuyNowNoItem     = fmt.Errorf("ebid: CommitBuyNow: %w", ErrNoItemSelected)
	errFeedbackNoTarget = errors.New("ebid: CommitUserFeedback: no feedback target")
)

// beginTx starts a transaction on behalf of the named component and
// registers it with the server so that a µRB of the component aborts it.
func beginTx(env *core.Env, name string) (*db.Tx, func(err error) error, error) {
	d, ok := core.Resource[*db.DB](env, ResourceDB)
	if !ok {
		return nil, nil, errNoDatabase
	}
	tx, err := d.Begin()
	if err != nil {
		return nil, nil, err
	}
	env.Server.RegisterTx(name, tx)
	finish := func(opErr error) error {
		if tx.Done() {
			// Aborted under us (µRB rollback).
			env.Server.ReleaseTx(name, tx)
			if opErr == nil {
				opErr = errTxAbortedInRecov
			}
			return opErr
		}
		if opErr != nil {
			aborted := tx.Abort() == nil
			env.Server.ReleaseTx(name, tx)
			if aborted {
				tx.Recycle()
			}
			return opErr
		}
		cerr := tx.Commit()
		// Unregister before recycling: once the Tx goes back to the pool
		// it may be re-begun and re-registered, and the stale
		// registration must not still be present to collide with it.
		env.Server.ReleaseTx(name, tx)
		if cerr != nil {
			return cerr
		}
		tx.Recycle()
		return nil
	}
	return tx, finish, nil
}

// Each op* function below implements one Table 3 stateless session
// component.

func opAuthenticate(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	userID := opArgs(call).User
	if userID <= 0 {
		return nil, errAuthBadUserID
	}
	res, err := invokeEntity(ctx, env, call, EntUser, opLoad, keyArgs(nil, userID))
	if err != nil {
		return nil, fmt.Errorf("ebid: Authenticate: %w", err)
	}
	row := res.(db.Row)
	store, err := sessionStore(env)
	if err != nil {
		return nil, err
	}
	sess := &session.Session{
		ID:      call.SessionID,
		UserID:  userID,
		Data:    map[string]string{"nickname": row["nickname"].(string)},
		Created: env.Now(),
	}
	if err := store.Write(sess); err != nil {
		return nil, err
	}
	page(call).s("<html>welcome ").anyS(row["nickname"]).s(" (user ").i(userID).s(")</html>")
	return core.SlotResult, nil
}

func opAboutMe(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, _, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	userRes, err := invokeEntity(ctx, env, call, EntUser, opLoad, keyArgs(nil, sess.UserID))
	if err != nil {
		return nil, err
	}
	bids, err := invokeEntityKeys(ctx, env, call, EntBid, byIndexArgs("user", sess.UserID))
	if err != nil {
		return nil, err
	}
	buys, err := invokeEntityKeys(ctx, env, call, BuyNow, byIndexArgs("user", sess.UserID))
	if err != nil {
		return nil, err
	}
	row := userRes.(db.Row)
	page(call).s("<html>about user ").i(sess.UserID).s(" (").anyS(row["nickname"]).
		s("): ").n(len(bids)).s(" bids, ").n(len(buys)).s(" buys</html>")
	return core.SlotResult, nil
}

func opBrowseCategories(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	res, err := invokeEntity(ctx, env, call, EntCategory, opList, listArgs(20))
	if err != nil {
		return nil, err
	}
	page(call).s("<html>").n(res.(int)).s(" categories</html>")
	return core.SlotResult, nil
}

func opBrowseRegions(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	res, err := invokeEntity(ctx, env, call, EntRegion, opList, listArgs(62))
	if err != nil {
		return nil, err
	}
	page(call).s("<html>").n(res.(int)).s(" regions</html>")
	return core.SlotResult, nil
}

func searchItems(ctx context.Context, env *core.Env, call *core.Call, col string, val int64) (any, error) {
	val = orFirst(val)
	ids, err := invokeEntityKeys(ctx, env, call, EntItem, byIndexArgs(col, val))
	if err != nil {
		return nil, err
	}
	shown := len(ids)
	if shown > 10 {
		shown = 10
	}
	// Load the first page of results.
	for _, id := range ids[:shown] {
		if _, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(nil, id)); err != nil {
			return nil, err
		}
	}
	page(call).s("<html>search ").s(col).s("=").i(val).s(": ").n(len(ids)).s(" items</html>")
	return core.SlotResult, nil
}

func opSearchItemsByCategory(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	return searchItems(ctx, env, call, "category", opArgs(call).Category)
}

func opSearchItemsByRegion(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	return searchItems(ctx, env, call, "region", opArgs(call).Region)
}

func opViewItem(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	itemID := orFirst(opArgs(call).Item)
	res, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(nil, itemID))
	if err != nil {
		// Ended auctions move to OldItem. Only a missing row sends the
		// request there: a refusal (Item mid-microreboot, a lock
		// conflict) must reach the client as itself, or a live item whose
		// id also exists among the old items is answered from the wrong
		// table.
		if !errors.Is(err, db.ErrNoRow) {
			return nil, err
		}
		old, oldErr := invokeEntity(ctx, env, call, OldItem, opLoad, keyArgs(nil, itemID))
		if oldErr != nil {
			return nil, err
		}
		row := old.(db.Row)
		page(call).s("<html>old item ").i(itemID).s(": ").anyS(row["name"]).
			s(" sold at ").anyF2(row["final_price"]).s("</html>")
		return core.SlotResult, nil
	}
	row := res.(db.Row)
	page(call).s("<html>item ").i(itemID).s(": ").anyS(row["name"]).
		s(", max bid ").anyF2(row["max_bid"]).s(", ").anyI(row["nb_bids"]).s(" bids</html>")
	return core.SlotResult, nil
}

func opViewUserInfo(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	userID := orFirst(opArgs(call).User)
	res, err := invokeEntity(ctx, env, call, EntUser, opLoad, keyArgs(nil, userID))
	if err != nil {
		return nil, err
	}
	fb, err := invokeEntityKeys(ctx, env, call, UserFeedback, byIndexArgs("to_user", userID))
	if err != nil {
		return nil, err
	}
	row := res.(db.Row)
	page(call).s("<html>user ").i(userID).s(" (").anyS(row["nickname"]).
		s("), rating ").anyI(row["rating"]).s(", ").n(len(fb)).s(" comments</html>")
	return core.SlotResult, nil
}

func opViewBidHistory(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	itemID := orFirst(opArgs(call).Item)
	keys, err := invokeEntityKeys(ctx, env, call, EntBid, byIndexArgs("item", itemID))
	if err != nil {
		return nil, err
	}
	page(call).s("<html>item ").i(itemID).s(" bid history: ").n(len(keys)).s(" bids</html>")
	return core.SlotResult, nil
}

func opMakeBid(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	itemID := orFirst(opArgs(call).Item)
	if _, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(nil, itemID)); err != nil {
		return nil, err
	}
	sess.Items = append(sess.Items, itemID)
	sess.Data["intent"] = "bid"
	if err := store.Write(sess); err != nil {
		return nil, err
	}
	page(call).s("<html>bid form for item ").i(itemID).s("</html>")
	return core.SlotResult, nil
}

func opCommitBid(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	if len(sess.Items) == 0 {
		return nil, errBidNoItem
	}
	itemID := sess.Items[len(sess.Items)-1]
	amount := opArgs(call).Amount
	if amount <= 0 {
		amount = 1
	}
	tx, finish, err := beginTx(env, CommitBid)
	if err != nil {
		return nil, err
	}
	err = func() error {
		bidID, err := invokeEntity(ctx, env, call, IdentityManager, opNextID, kindArgs(tx, "bid"))
		if err != nil {
			return err
		}
		id, ok := bidID.(int64)
		if !ok || id <= 0 || id > MaxUserID {
			return fmt.Errorf("ebid: CommitBid: bad primary key %v", bidID)
		}
		row := db.Row{"user": sess.UserID, "item": itemID, "amount": amount}
		if _, err := invokeEntity(ctx, env, call, EntBid, opCreate, rowArgs(tx, id, row)); err != nil {
			return err
		}
		itemRes, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(tx, itemID))
		if err != nil {
			return err
		}
		// Rows from the store are shared and immutable: derive the update
		// on a clone.
		item := itemRes.(db.Row).Clone()
		if amount > item["max_bid"].(float64) {
			item["max_bid"] = amount
		}
		item["nb_bids"] = item["nb_bids"].(int64) + 1
		_, err = invokeEntity(ctx, env, call, EntItem, opUpdate, rowArgs(tx, itemID, item))
		return err
	}()
	if err := finish(err); err != nil {
		return nil, err
	}
	sess.Items = sess.Items[:len(sess.Items)-1]
	delete(sess.Data, "intent")
	_ = store.Write(sess)
	page(call).s("<html>bid committed on item ").i(itemID).s(" for ").f2(amount).s("</html>")
	return core.SlotResult, nil
}

func opDoBuyNow(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	itemID := orFirst(opArgs(call).Item)
	if _, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(nil, itemID)); err != nil {
		return nil, err
	}
	sess.Items = append(sess.Items, itemID)
	sess.Data["intent"] = "buy"
	if err := store.Write(sess); err != nil {
		return nil, err
	}
	page(call).s("<html>buy-now form for item ").i(itemID).s("</html>")
	return core.SlotResult, nil
}

func opCommitBuyNow(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	if len(sess.Items) == 0 {
		return nil, errBuyNowNoItem
	}
	itemID := sess.Items[len(sess.Items)-1]
	tx, finish, err := beginTx(env, CommitBuyNow)
	if err != nil {
		return nil, err
	}
	err = func() error {
		buyID, err := invokeEntity(ctx, env, call, IdentityManager, opNextID, kindArgs(tx, "buy"))
		if err != nil {
			return err
		}
		id, ok := buyID.(int64)
		if !ok || id <= 0 || id > MaxUserID {
			return fmt.Errorf("ebid: CommitBuyNow: bad primary key %v", buyID)
		}
		row := db.Row{"user": sess.UserID, "item": itemID, "quantity": int64(1)}
		if _, err := invokeEntity(ctx, env, call, BuyNow, opCreate, rowArgs(tx, id, row)); err != nil {
			return err
		}
		itemRes, err := invokeEntity(ctx, env, call, EntItem, opLoad, keyArgs(tx, itemID))
		if err != nil {
			return err
		}
		item := itemRes.(db.Row).Clone()
		if q := item["quantity"].(int64); q > 0 {
			item["quantity"] = q - 1
		}
		_, err = invokeEntity(ctx, env, call, EntItem, opUpdate, rowArgs(tx, itemID, item))
		return err
	}()
	if err := finish(err); err != nil {
		return nil, err
	}
	sess.Items = sess.Items[:len(sess.Items)-1]
	delete(sess.Data, "intent")
	_ = store.Write(sess)
	page(call).s("<html>purchase committed for item ").i(itemID).s("</html>")
	return core.SlotResult, nil
}

func opLeaveUserFeedback(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	target := orFirst(opArgs(call).User)
	if _, err := invokeEntity(ctx, env, call, EntUser, opLoad, keyArgs(nil, target)); err != nil {
		return nil, err
	}
	sess.Data["fbTarget"] = strconv.FormatInt(target, 10)
	if err := store.Write(sess); err != nil {
		return nil, err
	}
	page(call).s("<html>feedback form for user ").i(target).s("</html>")
	return core.SlotResult, nil
}

func opCommitUserFeedback(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, store, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	targetStr, ok := sess.Data["fbTarget"]
	if !ok {
		return nil, errFeedbackNoTarget
	}
	target, err := strconv.ParseInt(targetStr, 10, 64)
	if err != nil || target <= 0 {
		return nil, fmt.Errorf("ebid: CommitUserFeedback: bad target %q", targetStr)
	}
	a := opArgs(call)
	rating := a.Rating
	if !a.HasRating || rating < -5 || rating > 5 {
		rating = 1
	}
	tx, finish, err := beginTx(env, CommitUserFeedback)
	if err != nil {
		return nil, err
	}
	err = func() error {
		fbID, err := invokeEntity(ctx, env, call, IdentityManager, opNextID, kindArgs(tx, "fb"))
		if err != nil {
			return err
		}
		id, ok := fbID.(int64)
		if !ok || id <= 0 || id > MaxUserID {
			return fmt.Errorf("ebid: CommitUserFeedback: bad primary key %v", fbID)
		}
		row := db.Row{"from_user": sess.UserID, "to_user": target, "rating": rating, "comment": "ok"}
		if _, err := invokeEntity(ctx, env, call, UserFeedback, opCreate, rowArgs(tx, id, row)); err != nil {
			return err
		}
		userRes, err := invokeEntity(ctx, env, call, EntUser, opLoad, keyArgs(tx, target))
		if err != nil {
			return err
		}
		user := userRes.(db.Row).Clone()
		user["rating"] = user["rating"].(int64) + rating
		_, err = invokeEntity(ctx, env, call, EntUser, opUpdate, rowArgs(tx, target, user))
		return err
	}()
	if err := finish(err); err != nil {
		return nil, err
	}
	delete(sess.Data, "fbTarget")
	_ = store.Write(sess)
	page(call).s("<html>feedback committed for user ").i(target).s("</html>")
	return core.SlotResult, nil
}

func opRegisterNewUser(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	region := orFirst(opArgs(call).Region)
	tx, finish, err := beginTx(env, RegisterNewUser)
	if err != nil {
		return nil, err
	}
	var newID int64
	err = func() error {
		idRes, err := invokeEntity(ctx, env, call, IdentityManager, opNextID, kindArgs(tx, "user"))
		if err != nil {
			return err
		}
		id, ok := idRes.(int64)
		if !ok || id <= 0 || id > MaxUserID {
			return fmt.Errorf("ebid: RegisterNewUser: bad primary key %v", idRes)
		}
		newID = id
		row := db.Row{
			"nickname": "user" + strconv.FormatInt(id, 10),
			"rating":   int64(0),
			"region":   region,
			"balance":  float64(100),
		}
		_, err = invokeEntity(ctx, env, call, EntUser, opCreate, rowArgs(tx, id, row))
		return err
	}()
	if err := finish(err); err != nil {
		return nil, err
	}
	// Auto-login the new user.
	store, err := sessionStore(env)
	if err != nil {
		return nil, err
	}
	sess := &session.Session{
		ID:      call.SessionID,
		UserID:  newID,
		Data:    map[string]string{"nickname": "user" + strconv.FormatInt(newID, 10)},
		Created: env.Now(),
	}
	if err := store.Write(sess); err != nil {
		return nil, err
	}
	page(call).s("<html>registered user ").i(newID).s("</html>")
	return core.SlotResult, nil
}

func opRegisterNewItem(ctx context.Context, env *core.Env, call *core.Call) (any, error) {
	sess, _, err := loadSession(env, call)
	if err != nil {
		return nil, err
	}
	category := orFirst(opArgs(call).Category)
	tx, finish, err := beginTx(env, RegisterNewItem)
	if err != nil {
		return nil, err
	}
	var newID int64
	err = func() error {
		idRes, err := invokeEntity(ctx, env, call, IdentityManager, opNextID, kindArgs(tx, "item"))
		if err != nil {
			return err
		}
		id, ok := idRes.(int64)
		if !ok || id <= 0 || id > MaxUserID {
			return fmt.Errorf("ebid: RegisterNewItem: bad primary key %v", idRes)
		}
		newID = id
		row := db.Row{
			"name":     "item-" + strconv.FormatInt(id, 10),
			"seller":   sess.UserID,
			"category": category,
			"region":   int64(1),
			"price":    float64(10),
			"max_bid":  float64(0),
			"nb_bids":  int64(0),
			"quantity": int64(1),
		}
		_, err = invokeEntity(ctx, env, call, EntItem, opCreate, rowArgs(tx, id, row))
		return err
	}()
	if err := finish(err); err != nil {
		return nil, err
	}
	page(call).s("<html>registered item ").i(newID).s("</html>")
	return core.SlotResult, nil
}

// sessionDescriptors returns the deployment descriptors for the 17
// stateless session components.
func sessionDescriptors() []core.Descriptor {
	ops := map[string]func(context.Context, *core.Env, *core.Call) (any, error){
		AboutMe:               opAboutMe,
		Authenticate:          opAuthenticate,
		BrowseCategories:      opBrowseCategories,
		BrowseRegions:         opBrowseRegions,
		CommitBid:             opCommitBid,
		CommitBuyNow:          opCommitBuyNow,
		CommitUserFeedback:    opCommitUserFeedback,
		DoBuyNow:              opDoBuyNow,
		LeaveUserFeedback:     opLeaveUserFeedback,
		MakeBid:               opMakeBid,
		RegisterNewItem:       opRegisterNewItem,
		RegisterNewUser:       opRegisterNewUser,
		SearchItemsByCategory: opSearchItemsByCategory,
		SearchItemsByRegion:   opSearchItemsByRegion,
		ViewBidHistory:        opViewBidHistory,
		ViewUserInfo:          opViewUserInfo,
		ViewItem:              opViewItem,
	}
	// Loose references (resolved through the naming service); these feed
	// the recovery manager's URL→path mapping but do NOT merge recovery
	// groups.
	refs := map[string][]string{
		AboutMe:               {EntUser, EntBid, BuyNow},
		Authenticate:          {EntUser},
		BrowseCategories:      {EntCategory},
		BrowseRegions:         {EntRegion},
		CommitBid:             {IdentityManager, EntBid, EntItem},
		CommitBuyNow:          {IdentityManager, BuyNow, EntItem},
		CommitUserFeedback:    {IdentityManager, UserFeedback, EntUser},
		DoBuyNow:              {EntItem},
		LeaveUserFeedback:     {EntUser},
		MakeBid:               {EntItem},
		RegisterNewItem:       {IdentityManager, EntItem},
		RegisterNewUser:       {IdentityManager, EntUser},
		SearchItemsByCategory: {EntItem},
		SearchItemsByRegion:   {EntItem},
		ViewBidHistory:        {EntBid},
		ViewUserInfo:          {EntUser, UserFeedback},
		ViewItem:              {EntItem, OldItem},
	}
	var out []core.Descriptor
	for name, fn := range ops {
		name, fn := name, fn
		out = append(out, core.Descriptor{
			Name: name,
			Kind: core.StatelessSession,
			Refs: refs[name],
			Factory: func() core.Component {
				return &sessionComponent{name: name, op: fn}
			},
			TxMethods: map[string]core.TxAttr{name: core.TxRequired},
		})
	}
	return out
}
