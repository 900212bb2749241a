package ebid

import (
	"fmt"
	"strconv"

	"repro/internal/core"
)

// Response-body rendering.
//
// Every eBid page is appended to its request's own buffer, the root
// core.Call's Body, through renderBuf: reads, writes, the WAR's static
// pages and Logout alike. The op then returns core.SlotResult, and
// App.Execute hands the buffer up as the body. The call keeps the
// buffer's capacity when it is pooled, so a warm request renders its page
// without allocating, and the only copy of the page on its way to the
// wire is the one into the connection's write buffer.
//
// Bodies must stay byte-identical to the fmt.Sprintf formats the
// appenders replaced: the detect.Sampler comparison detector diffs live
// bodies against a shadow replica, so any drift would read as
// divergence. The any-typed column accessors (anyS/anyI/anyF2) therefore
// fast-path the schema types and fall back to the fmt verbs for anything
// else — a corrupted column renders exactly the "%!s(int64=5)"-style
// noise it always did, which is precisely what the detectors key on.
// TestRenderGoldenBodies holds this equivalence.

// renderBuf appends to a body buffer in place.
type renderBuf []byte

// page returns the renderer for call's request: its root call's Body.
func page(call *core.Call) *renderBuf {
	return (*renderBuf)(&call.Root().Body)
}

// s appends a literal string.
func (r *renderBuf) s(v string) *renderBuf {
	*r = append(*r, v...)
	return r
}

// i appends an int64 as %d.
func (r *renderBuf) i(v int64) *renderBuf {
	*r = strconv.AppendInt(*r, v, 10)
	return r
}

// n appends an int as %d (the len(...) arguments).
func (r *renderBuf) n(v int) *renderBuf {
	*r = strconv.AppendInt(*r, int64(v), 10)
	return r
}

// f2 appends a float64 as %.2f.
func (r *renderBuf) f2(v float64) *renderBuf {
	*r = strconv.AppendFloat(*r, v, 'f', 2, 64)
	return r
}

// anyS appends an any-typed value as %s would.
func (r *renderBuf) anyS(v any) *renderBuf {
	if s, ok := v.(string); ok {
		return r.s(s)
	}
	*r = fmt.Appendf(*r, "%s", v)
	return r
}

// anyI appends an any-typed value as %d would.
func (r *renderBuf) anyI(v any) *renderBuf {
	if i, ok := v.(int64); ok {
		return r.i(i)
	}
	*r = fmt.Appendf(*r, "%d", v)
	return r
}

// anyF2 appends an any-typed value as %.2f would.
func (r *renderBuf) anyF2(v any) *renderBuf {
	if f, ok := v.(float64); ok {
		return r.f2(f)
	}
	*r = fmt.Appendf(*r, "%.2f", v)
	return r
}
