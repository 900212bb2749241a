package core

import (
	"context"
	"fmt"
	"sync"
	"time"
)

// ContainerState tracks the lifecycle of a container.
type ContainerState int

// Container states.
const (
	StateRunning ContainerState = iota
	StateRebooting
	StateStopped
)

func (s ContainerState) String() string {
	switch s {
	case StateRunning:
		return "running"
	case StateRebooting:
		return "rebooting"
	case StateStopped:
		return "stopped"
	default:
		return fmt.Sprintf("ContainerState(%d)", int(s))
	}
}

// Container manages all instances of one component, the per-component
// server metadata, and the component's volatile resource accounting. It is
// the JBoss "management container" analog. Cross-cutting concerns — fault
// injection, metrics, call-path recording, shepherd tracking — live in
// the Server's interceptor pipeline, not here.
type Container struct {
	mu   sync.Mutex
	desc Descriptor
	env  *Env

	state     ContainerState
	instances []Component
	next      int // round-robin instance cursor

	// txMethods is the live transaction method map; rebuilt from the
	// descriptor on every (re)initialization, so corruption is cured by
	// a µRB.
	txMethods map[string]TxAttr

	// leakedBytes models memory held beyond the instance pool (leaks);
	// a µRB releases it. Drives the microrejuvenation experiments.
	leakedBytes int64

	// rebooted counts crash phases this container went through.
	rebooted uint64

	// recoveryEstimate is how long a µRB of this component is expected
	// to take; used for the RetryAfter hint.
	recoveryEstimate time.Duration
}

func newContainer(desc Descriptor, env *Env) *Container {
	return &Container{
		desc:  desc,
		env:   env,
		state: StateStopped,
	}
}

// Name returns the component name.
func (c *Container) Name() string { return c.desc.Name }

// Kind returns the component kind.
func (c *Container) Kind() Kind { return c.desc.Kind }

// Descriptor returns a copy of the deployment descriptor.
func (c *Container) Descriptor() Descriptor { return c.desc }

// State returns the container's lifecycle state.
func (c *Container) State() ContainerState {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.state
}

// initialize builds the instance pool and metadata. Called at deployment
// and at the completion phase of a microreboot. The instance Factory is
// deliberately reused (classloader preservation).
func (c *Container) initialize() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.initializeLocked()
}

func (c *Container) initializeLocked() error {
	size := c.desc.PoolSize
	if size <= 0 {
		size = DefaultPoolSize
	}
	c.instances = make([]Component, 0, size)
	for i := 0; i < size; i++ {
		inst := c.desc.Factory()
		if inst == nil {
			return fmt.Errorf("core: factory for %s returned nil", c.desc.Name)
		}
		if err := inst.Init(c.env); err != nil {
			return fmt.Errorf("core: init %s: %w", c.desc.Name, err)
		}
		c.instances = append(c.instances, inst)
	}
	// Rebuild the transaction method map from the descriptor: corrupted
	// metadata is discarded by the µRB.
	c.txMethods = make(map[string]TxAttr, len(c.desc.TxMethods))
	for op, attr := range c.desc.TxMethods {
		c.txMethods[op] = attr
	}
	c.state = StateRunning
	return nil
}

// crash forcefully destroys all instances and discards metadata. It
// returns the number of leaked bytes released. The shepherded calls are
// killed by the Server, which owns shepherd tracking.
func (c *Container) crash() (freed int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.state = StateRebooting
	c.instances = nil // destroy all extant instances
	c.next = 0
	c.txMethods = nil // discard server metadata
	freed = c.leakedBytes
	c.leakedBytes = 0
	c.rebooted++
	return freed
}

// stop gracefully undeploys the component.
func (c *Container) stop() error {
	c.mu.Lock()
	defer c.mu.Unlock()
	var firstErr error
	for _, inst := range c.instances {
		if err := inst.Stop(); err != nil && firstErr == nil {
			firstErr = err
		}
	}
	c.instances = nil
	c.state = StateStopped
	return firstErr
}

// CorruptTxMethodMap damages the live transaction method map (Table 2:
// "corrupt transaction method map"). mode is "null", "invalid" or
// "wrong". The damage persists until the next µRB rebuilds the map.
func (c *Container) CorruptTxMethodMap(mode string) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	switch mode {
	case "null":
		c.txMethods = nil
	case "invalid":
		for op := range c.txMethods {
			c.txMethods[op] = txCorrupted
		}
	case "wrong":
		// Swap attributes so transactional ops run without transactions:
		// valid-looking, semantically wrong.
		for op := range c.txMethods {
			if c.txMethods[op] == TxRequired {
				c.txMethods[op] = TxNever
			} else {
				c.txMethods[op] = TxRequired
			}
		}
	default:
		return fmt.Errorf("core: unknown corruption mode %q", mode)
	}
	return nil
}

// TxAttrFor reports the transaction attribute for op. Calls on a container
// whose map was nulled or invalidated fail — reproducing the fault's
// user-visible symptom.
func (c *Container) TxAttrFor(op string) (TxAttr, error) {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.txAttrLocked(op)
}

func (c *Container) txAttrLocked(op string) (TxAttr, error) {
	if c.txMethods == nil {
		return "", fmt.Errorf("%w: %s transaction method map missing", ErrComponentFault, c.desc.Name)
	}
	attr, ok := c.txMethods[op]
	if !ok {
		return TxSupports, nil // sensible default for undeclared ops
	}
	if attr == txCorrupted {
		return "", fmt.Errorf("%w: %s transaction method map corrupted", ErrComponentFault, c.desc.Name)
	}
	return attr, nil
}

// Leak adds n bytes to the container's modeled leaked memory.
func (c *Container) Leak(n int64) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.leakedBytes += n
}

// LeakedBytes reports the current modeled leak.
func (c *Container) LeakedBytes() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.leakedBytes
}

// Rebooted reports how many crash phases this container went through.
func (c *Container) Rebooted() uint64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.rebooted
}

// ReplaceInstance discards one pooled instance and builds a fresh one.
// The container does this automatically when an instance-level fault is
// detected — which is why Table 2 marks null/invalid attribute corruption
// of stateless session EJBs as needing no reboot at all: the faulty
// instance is naturally expunged after the first call fails.
func (c *Container) ReplaceInstance(i int) error {
	c.mu.Lock()
	defer c.mu.Unlock()
	if i < 0 || i >= len(c.instances) {
		return fmt.Errorf("core: instance index %d out of range", i)
	}
	inst := c.desc.Factory()
	if err := inst.Init(c.env); err != nil {
		return err
	}
	c.instances[i] = inst
	return nil
}

// Serve dispatches a call to a pooled instance. It enforces the container
// state and consults the transaction method map; everything else about
// the hop (path recording, metrics, fault hooks, kill tracking) happens
// in the Server's interceptor pipeline before the call gets here.
func (c *Container) Serve(ctx context.Context, call *Call) (any, error) {
	c.mu.Lock()
	switch c.state {
	case StateRebooting:
		est := c.recoveryEstimate
		c.mu.Unlock()
		return nil, &RetryAfterError{Component: c.desc.Name, After: est}
	case StateStopped:
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s", ErrStopped, c.desc.Name)
	}
	if len(c.instances) == 0 {
		c.mu.Unlock()
		return nil, fmt.Errorf("%w: %s has no instances", ErrComponentFault, c.desc.Name)
	}
	idx := c.next % len(c.instances)
	inst := c.instances[idx]
	c.next++
	// The transaction method map must be intact for any declared op. It
	// is read under the same lock as the state, so a µRB that crashes
	// the container after this point finds the call in flight and kills
	// it, instead of the call seeing the crash's discarded metadata.
	_, err := c.txAttrLocked(call.Op)
	c.mu.Unlock()
	if err != nil {
		return nil, err
	}

	return inst.Serve(ctx, call)
}
