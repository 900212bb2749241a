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

// TestHomeInvokeAllocs is the allocation ceiling of a static page: the
// WAR appends it to the call's body buffer, which the pooled call keeps,
// so a warm Home allocates nothing. Returning the page boxed in `any`
// measured 1.
func TestHomeInvokeAllocs(t *testing.T) {
	app, _ := newApp(t)
	ctx := context.Background()
	home := func() {
		call := core.NewCall(OpHome, "", nil, 0)
		if _, err := app.Execute(ctx, call); err != nil {
			t.Fatal(err)
		}
		call.Release()
	}
	if n := testing.AllocsPerRun(200, home); n != 0 {
		t.Errorf("Home invoke allocates %v times per call, want 0", n)
	}
}

// TestBrowseRegionsInvokeAllocs is the allocation ceiling of a list
// operation: BrowseRegions scans the regions table and counts the rows.
// It measures 0: Scan walks the table's live key list and the list op
// returns only the count. Collecting and sorting the keys on each Scan and
// growing a slice of the rows measured 6; copying each row as well, 22.
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
	if n := testing.AllocsPerRun(200, browse); n > 2 {
		t.Errorf("BrowseRegions invoke allocates %v times per call, want <= 2", n)
	}
}
