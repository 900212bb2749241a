//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package fleet

import (
	"fmt"
	"testing"
	"time"

	"repro/internal/cluster"
)

// TestRouterPickAllocs is the allocation ceiling of the proxy's routing
// decision: a new request's candidate slice comes from a pool, and a
// pinned session's request is a shared-lock map probe and a timestamp.
// Neither allocates.
func TestRouterPickAllocs(t *testing.T) {
	backends := make([]*Backend, 4)
	for i := range backends {
		backends[i] = &Backend{Name: fmt.Sprintf("node%d", i)}
		backends[i].healthy.Store(true)
	}
	r := NewRouter(cluster.LeastLoadedPolicy{}, backends, time.Hour)
	r.pin("s1", backends[2])

	for _, tc := range []struct{ name, op, sid string }{
		{"new request", "ViewItem", ""},
		{"pinned session", "AboutMe", "s1"},
	} {
		pick := func() {
			if _, err := r.pick(tc.op, tc.sid); err != nil {
				t.Fatal(err)
			}
		}
		if n := testing.AllocsPerRun(200, pick); n != 0 {
			t.Errorf("pick for a %s allocates %v times, want 0", tc.name, n)
		}
	}
}
