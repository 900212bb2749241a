package core

import (
	"fmt"
	"sort"
	"sync"
	"time"
)

// bindingState describes what a name currently resolves to.
type bindingState int

const (
	bindOK bindingState = iota
	// bindSentinel marks a component mid-microreboot; lookups yield
	// RetryAfterError instead of a container (Section 6.2: "we bind the
	// component's name to a sentinel during µRB").
	bindSentinel
	// bindNull / bindInvalid / bindWrong model corrupted naming entries
	// (Table 2: "corrupt JNDI entries", set null / invalid / wrong).
	bindNull
	bindInvalid
	bindWrong
)

type binding struct {
	state     bindingState
	container *Container
	// retryAfter is the estimated recovery time advertised while the
	// sentinel is bound.
	retryAfter time.Duration
	// wrongTarget is the container a "wrong" corruption points at.
	wrongTarget *Container
}

// Registry is the naming service (JNDI analog): it maps component names to
// containers. References obtained from it may be cached by callers, but in
// a crash-only application every inter-component call re-resolves through
// the registry so that sentinels and rebinds take effect immediately.
type Registry struct {
	mu       sync.Mutex
	bindings map[string]*binding
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{bindings: map[string]*binding{}}
}

// bind installs or replaces a healthy binding.
func (r *Registry) bind(name string, c *Container) {
	r.mu.Lock()
	defer r.mu.Unlock()
	r.bindings[name] = &binding{state: bindOK, container: c}
}

// unbind removes a name entirely.
func (r *Registry) unbind(name string) {
	r.mu.Lock()
	defer r.mu.Unlock()
	delete(r.bindings, name)
}

// bindSentinelFor replaces the binding with a sentinel advertising the
// estimated recovery time.
func (r *Registry) bindSentinelFor(name string, retryAfter time.Duration) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[name]
	if !ok {
		r.bindings[name] = &binding{state: bindSentinel, retryAfter: retryAfter}
		return
	}
	b.state = bindSentinel
	b.retryAfter = retryAfter
}

// Lookup resolves a name to its container. While a sentinel is bound it
// returns a *RetryAfterError; corrupted entries produce the corresponding
// failure mode.
func (r *Registry) Lookup(name string) (*Container, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[name]
	if !ok {
		return nil, fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	switch b.state {
	case bindOK:
		return b.container, nil
	case bindSentinel:
		return nil, &RetryAfterError{Component: name, After: b.retryAfter}
	case bindNull:
		return nil, fmt.Errorf("%w: naming entry for %s is null", ErrComponentFault, name)
	case bindInvalid:
		return nil, fmt.Errorf("%w: naming entry for %s is invalid", ErrComponentFault, name)
	case bindWrong:
		// A wrong entry resolves to some other component's container:
		// type-checks, but the call will fail or misbehave.
		if b.wrongTarget != nil {
			return b.wrongTarget, nil
		}
		return nil, fmt.Errorf("%w: naming entry for %s dangles", ErrComponentFault, name)
	default:
		return nil, fmt.Errorf("%w: naming entry for %s unreadable", ErrComponentFault, name)
	}
}

// Corrupt damages the naming entry for name (Table 2 "corrupt JNDI
// entries"). mode is "null", "invalid" or "wrong". The corruption persists
// until the component's next µRB rebinds the name.
func (r *Registry) Corrupt(name, mode string) error {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[name]
	if !ok {
		return fmt.Errorf("%w: %s", ErrNotBound, name)
	}
	switch mode {
	case "null":
		b.state = bindNull
	case "invalid":
		b.state = bindInvalid
	case "wrong":
		b.state = bindWrong
		// Point at an arbitrary other container, deterministically.
		names := make([]string, 0, len(r.bindings))
		for n := range r.bindings {
			if n != name {
				names = append(names, n)
			}
		}
		sort.Strings(names)
		for _, n := range names {
			if other := r.bindings[n]; other.state == bindOK {
				b.wrongTarget = other.container
				break
			}
		}
	default:
		return fmt.Errorf("core: unknown corruption mode %q", mode)
	}
	return nil
}

// Healthy reports whether the binding for name is present and undamaged.
func (r *Registry) Healthy(name string) bool {
	r.mu.Lock()
	defer r.mu.Unlock()
	b, ok := r.bindings[name]
	return ok && b.state == bindOK
}
