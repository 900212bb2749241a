//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package main

import "testing"

// TestProxyViewItemAllocs is the allocation ceiling of the whole proxy
// path for one keep-alive ViewItem of an established session: the client's
// head read by httpfront.Server, the proxy's mux, the router's forward over
// a pooled backend connection and the relayed page. The client and the
// backend allocate nothing, so every allocation counted is the proxy's. It
// measures 2: the string holding the client's head and the slice of the
// relayed header values. Through http.ServeMux's match it measured 5, and
// on net/http's http.Server more again.
func TestProxyViewItemAllocs(t *testing.T) {
	p := newProxy(t)
	p.view(t) // dials the backend connection and pins the session
	if allocs := testing.AllocsPerRun(200, func() { p.view(t) }); allocs > 4 {
		t.Errorf("a proxied ViewItem allocates %.1f times, want <= 4", allocs)
	}
}
