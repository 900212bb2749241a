package faults

import (
	"context"
	"fmt"

	"repro/internal/core"
	"repro/internal/ebid"
	"repro/internal/store/session"
)

// Inject installs the fault described by spec and returns its handle.
func (inj *Injector) Inject(spec Spec) (*ActiveFault, error) {
	f := &ActiveFault{Spec: spec, inj: inj, active: true}
	var err error
	switch spec.Kind {
	case Deadlock, InfiniteLoop:
		err = inj.injectHang(f)
	case AppMemoryLeak:
		err = inj.injectAppLeak(f)
	case TransientException:
		err = inj.injectException(f)
	case CorruptPrimaryKeys:
		err = inj.injectBadPrimaryKeys(f)
	case CorruptNaming:
		err = inj.injectNamingCorruption(f)
	case CorruptTxMethodMap:
		err = inj.injectTxMapCorruption(f)
	case CorruptSessionAttrs:
		err = inj.injectAttrCorruption(f)
	case CorruptFastS:
		err = inj.injectFastSCorruption(f)
	case CorruptSSM:
		err = inj.injectSSMCorruption(f)
	case CorruptDB:
		err = inj.injectDBCorruption(f)
	case MemLeakIntraJVM:
		f.Cure = CureProcess
		f.remove = func() {}
	case MemLeakExtraJVM:
		f.Cure = CureNode
		f.remove = func() {}
	case BitFlipMemory, BitFlipRegisters:
		err = inj.injectBitFlip(f)
	case BadSyscall:
		err = inj.injectBadSyscall(f)
	case BrickCrash:
		err = inj.injectBrickCrash(f)
	case BrickSlow:
		err = inj.injectBrickSlow(f)
	default:
		err = fmt.Errorf("faults: unknown kind %v", spec.Kind)
	}
	if err != nil {
		return nil, err
	}
	inj.mu.Lock()
	inj.active = append(inj.active, f)
	inj.mu.Unlock()
	return f, nil
}

// hookComponent installs a fault hook for the target component in the
// injector's server-level interceptor, recording its removal. The
// component must be deployed.
func (inj *Injector) hookComponent(f *ActiveFault, name string, hook Hook) error {
	if _, err := inj.server.Container(name); err != nil {
		return err
	}
	inj.setHook(name, hook)
	f.remove = func() { inj.setHook(name, nil) }
	return nil
}

// injectHang implements deadlocks and infinite loops: every call into the
// component wedges its shepherding thread. A deadlock additionally holds
// a database lock, which only the µRB-triggered transaction rollback
// releases.
func (inj *Injector) injectHang(f *ActiveFault) error {
	f.Cure = CureComponent
	comp := f.Spec.Component
	if f.Spec.Kind == Deadlock && inj.db != nil {
		// Take and hold a row lock, as a deadlocked transaction would.
		tx, err := inj.db.Begin()
		if err == nil {
			if row, gerr := tx.Get(ebid.TblUsers, 1); gerr == nil {
				_ = tx.Update(ebid.TblUsers, 1, row)
			}
			f.hungTx = tx
			inj.server.RegisterTx(comp, tx)
		}
	}
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		return false, nil, fmt.Errorf("%w: %v in %s: %w", ErrInjected, f.Spec.Kind, comp, core.ErrHang)
	})
}

// injectAppLeak leaks LeakPerCall bytes of container memory on every
// invocation. The leak code path survives µRBs (the bug is in the code),
// but each µRB releases the accumulated memory — the foundation of the
// microrejuvenation experiments. Cure level for Table 2 purposes is the
// EJB µRB that reclaims the memory.
func (inj *Injector) injectAppLeak(f *ActiveFault) error {
	f.Cure = CureComponent
	f.Persistent = true
	comp := f.Spec.Component
	per := f.Spec.LeakPerCall
	if per <= 0 {
		per = 1 << 10
	}
	c, err := inj.server.Container(comp)
	if err != nil {
		return err
	}
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		c.Leak(per)
		return true, nil, nil
	})
}

// injectException makes every call into the component raise the analog of
// an incorrectly handled Java exception, leaving the component broken
// until a µRB reinstantiates it.
func (inj *Injector) injectException(f *ActiveFault) error {
	f.Cure = CureComponent
	comp := f.Spec.Component
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		return false, nil, fmt.Errorf("%w: transient exception in %s", ErrInjected, comp)
	})
}

// injectBadPrimaryKeys corrupts the application-specific primary-key
// generation of the IdentityManager.
func (inj *Injector) injectBadPrimaryKeys(f *ActiveFault) error {
	f.Cure = CureComponent
	if f.Spec.Mode == ModeWrong {
		f.DataRepairNeeded = true
	}
	mode := f.Spec.Mode
	comp := ebid.IdentityManager
	f.Spec.Component = comp
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		switch mode {
		case ModeNull:
			// Null key: access blows up like a NullPointerException.
			return false, nil, fmt.Errorf("%w: null primary key from %s", ErrInjected, comp)
		case ModeInvalid:
			// Type-checks but is application-invalid (exceeds MaxUserID);
			// callers validating the key range reject it.
			return false, int64(ebid.MaxUserID + 7), nil
		case ModeWrong:
			// Valid-looking but colliding key: inserts hit duplicates.
			return false, int64(1), nil
		default:
			return false, nil, fmt.Errorf("%w: bad primary key mode %q", ErrInjected, mode)
		}
	})
}

// injectNamingCorruption damages the registry binding for the component.
func (inj *Injector) injectNamingCorruption(f *ActiveFault) error {
	f.Cure = CureComponent
	if err := inj.server.Registry().Corrupt(f.Spec.Component, string(f.Spec.Mode)); err != nil {
		return err
	}
	f.remove = func() {} // the µRB rebind heals the entry itself
	return nil
}

// injectTxMapCorruption damages the container's transaction method map.
func (inj *Injector) injectTxMapCorruption(f *ActiveFault) error {
	f.Cure = CureComponent
	if f.Spec.Mode == ModeWrong {
		// Transactions silently run with the wrong attribute; service
		// continues but persistent data may need reconstruction.
		f.DataRepairNeeded = true
	}
	c, err := inj.server.Container(f.Spec.Component)
	if err != nil {
		return err
	}
	if err := c.CorruptTxMethodMap(string(f.Spec.Mode)); err != nil {
		return err
	}
	f.remove = func() {} // reinit rebuilds the map from the descriptor
	return nil
}

// injectAttrCorruption corrupts class attributes of a stateless session
// component. Null/invalid corruption fails the first call, after which
// the container discards the bad instance — no reboot needed. Wrong
// corruption silently misbehaves until both the component and the WAR
// (which caches its views) are microrebooted.
func (inj *Injector) injectAttrCorruption(f *ActiveFault) error {
	comp := f.Spec.Component
	c, err := inj.server.Container(comp)
	if err != nil {
		return err
	}
	switch f.Spec.Mode {
	case ModeNull, ModeInvalid:
		f.Cure = CureNone
		fired := false
		inj.setHook(comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
			if fired {
				return true, nil, nil
			}
			fired = true
			// The first call fails; the container replaces the instance,
			// naturally expunging the fault.
			_ = c.ReplaceInstance(0)
			f.Deactivate()
			return false, nil, fmt.Errorf("%w: corrupted attribute (%s) in %s", ErrInjected, f.Spec.Mode, comp)
		})
		f.remove = func() { inj.setHook(comp, nil) }
	case ModeWrong:
		f.Cure = CureComponentAndWAR
		f.DataRepairNeeded = true
		inj.setHook(comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
			// Valid-looking but wrong output, e.g. surreptitiously
			// altered dollar amounts — only the comparison-based
			// detector can see this.
			return false, "<html>item 1: gadget, max bid 0.01, 1 bids</html>", nil
		})
		f.remove = func() { inj.setHook(comp, nil) }
	default:
		return fmt.Errorf("faults: attr corruption needs a mode")
	}
	return nil
}

// injectFastSCorruption damages a session object inside FastS. The WAR
// microreboot discards the damaged HttpSession, forcing a clean re-login.
func (inj *Injector) injectFastSCorruption(f *ActiveFault) error {
	fs, ok := inj.store.(*session.FastS)
	if !ok {
		return fmt.Errorf("faults: FastS corruption requires a FastS store")
	}
	f.Cure = CureWAR
	if f.Spec.Mode == ModeWrong {
		f.DataRepairNeeded = true
	}
	if err := fs.Corrupt(f.Spec.SessionID, string(f.Spec.Mode)); err != nil {
		return err
	}
	sid := f.Spec.SessionID
	f.Spec.Component = ebid.WAR
	f.remove = func() {}
	f.onCure = func() { _ = fs.Delete(sid) }
	return nil
}

// injectSSMCorruption flips bits in a stored session blob; the store's
// checksum detects and discards the bad copy on the next read, so no
// reboot is needed. The cluster scopes the damage to one replica, which
// heals by read-repair; a single-replica SSM loses the session.
func (inj *Injector) injectSSMCorruption(f *ActiveFault) error {
	m, ok := inj.store.(*session.SSMCluster)
	if !ok {
		return fmt.Errorf("faults: SSM corruption requires an SSMCluster store")
	}
	f.Cure = CureNone
	if err := m.CorruptBits(f.Spec.SessionID); err != nil {
		return err
	}
	f.remove = func() {}
	return nil
}

// brickCluster asserts the injector's store is the brick cluster and
// resolves the target brick (defaulting to the first brick).
func (inj *Injector) brickCluster(f *ActiveFault) (*session.SSMCluster, string, error) {
	cl, ok := inj.store.(*session.SSMCluster)
	if !ok {
		return nil, "", fmt.Errorf("faults: brick faults require an SSMCluster store")
	}
	name := f.Spec.Component
	if name == "" {
		name = cl.Bricks()[0].Name()
		f.Spec.Component = name
	}
	if _, err := cl.BrickByName(name); err != nil {
		return nil, "", err
	}
	return cl, name, nil
}

// injectBrickCrash kills one session-state brick. With W ≤ N-1 live
// replicas per shard the application never notices; the fault clears when
// the brick is restarted (the recovery manager's brick µRB).
func (inj *Injector) injectBrickCrash(f *ActiveFault) error {
	cl, name, err := inj.brickCluster(f)
	if err != nil {
		return err
	}
	f.Cure = CureComponent // a brick µRB, performed by RM's brick path
	if err := cl.CrashBrick(name); err != nil {
		return err
	}
	f.remove = func() {}
	return nil
}

// injectBrickSlow degrades one brick; reads route around it until the
// fault is cleared or the brick is restarted.
func (inj *Injector) injectBrickSlow(f *ActiveFault) error {
	cl, name, err := inj.brickCluster(f)
	if err != nil {
		return err
	}
	f.Cure = CureComponent
	if err := cl.SetBrickSlow(name, true); err != nil {
		return err
	}
	f.remove = func() { _ = cl.SetBrickSlow(name, false) }
	return nil
}

// injectDBCorruption alters table contents directly; per Table 2 only a
// database table repair restores correctness.
func (inj *Injector) injectDBCorruption(f *ActiveFault) error {
	f.Cure = CureManual
	f.DataRepairNeeded = true
	table := f.Spec.Table
	if table == "" {
		table = ebid.TblUsers
	}
	key := f.Spec.RowKey
	if key == 0 {
		key = 1
	}
	col := f.Spec.Column
	if col == "" {
		col = "region"
	}
	switch f.Spec.Mode {
	case ModeNull:
		_, err := inj.db.CorruptRow(table, key, col, nil)
		f.remove = func() {}
		return err
	case ModeInvalid:
		_, err := inj.db.CorruptRow(table, key, col, int64(-99))
		f.remove = func() {}
		return err
	case ModeWrong:
		err := inj.db.SwapRows(table, key, key+1)
		f.remove = func() {}
		return err
	default:
		return fmt.Errorf("faults: DB corruption needs a mode")
	}
}

// injectBitFlip models low-level memory/register corruption underneath
// the JVM: the process misbehaves intermittently until restarted.
func (inj *Injector) injectBitFlip(f *ActiveFault) error {
	f.Cure = CureProcess
	f.DataRepairNeeded = true
	comp := f.Spec.Component
	if comp == "" {
		comp = ebid.WAR
		f.Spec.Component = comp
	}
	count := 0
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		count++
		if count%3 == 0 { // intermittent corruption
			return false, nil, fmt.Errorf("%w: %v under the JVM", ErrInjected, f.Spec.Kind)
		}
		return true, nil, nil
	})
}

// injectBadSyscall models bad system-call return values: every request
// through the process fails at a low level until the JVM is restarted.
func (inj *Injector) injectBadSyscall(f *ActiveFault) error {
	f.Cure = CureProcess
	comp := ebid.WAR
	f.Spec.Component = comp
	return inj.hookComponent(f, comp, func(ctx context.Context, call *core.Call) (bool, any, error) {
		return false, nil, fmt.Errorf("%w: bad syscall return in JVM I/O", ErrInjected)
	})
}
