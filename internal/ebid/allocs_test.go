//go:build !race

// Allocation ceilings do not hold under -race: its sync.Pool drops Puts.

package ebid

import (
	"context"
	"testing"

	"repro/internal/core"
)

// TestViewItemInvokeAllocs is the allocation ceiling of the hottest
// operation: a warm ViewItem through core.Server.Invoke (WAR dispatch,
// interceptors, shepherd tracking, the session and entity hops) with a
// pooled call and typed arguments allocates nothing.
func TestViewItemInvokeAllocs(t *testing.T) {
	app, _ := newApp(t)
	ctx := context.Background()
	args := &OpArgs{Item: 1}
	view := func() {
		call := core.NewCall(ViewItem, "", args, 0)
		if _, err := app.Execute(ctx, call); err != nil {
			t.Fatal(err)
		}
		call.Release()
	}
	if n := testing.AllocsPerRun(200, view); n != 0 {
		t.Errorf("ViewItem invoke allocates %v times per call, want 0", n)
	}
}

// TestBrowseRegionsInvokeAllocs is the allocation ceiling of a list
// operation: BrowseRegions scans the regions table and counts the rows,
// which it takes as the table's own immutable rows. It measures 6 (Scan's
// key slice and the growing result slice); copying each row, as the list
// op once did, measured 22.
func TestBrowseRegionsInvokeAllocs(t *testing.T) {
	app, _ := newApp(t)
	ctx := context.Background()
	browse := func() {
		call := core.NewCall(BrowseRegions, "", nil, 0)
		if _, err := app.Execute(ctx, call); err != nil {
			t.Fatal(err)
		}
		call.Release()
	}
	browse()
	if n := testing.AllocsPerRun(200, browse); n > 8 {
		t.Errorf("BrowseRegions invoke allocates %v times per call, want <= 8", n)
	}
}
