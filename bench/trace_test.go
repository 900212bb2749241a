package main

import (
	"reflect"
	"testing"
)

// A hand-built request: the client span covers everything; the router
// covers most of it; the front end sits inside the router; two entity
// hops, one of them outlasting its parent by mistake, and a store read.
func TestSelfTimeArithmetic(t *testing.T) {
	spans := []span{
		{Name: layerClient, Parent: -1, Start: 0, End: 1000},
		{Name: layerRouter, Parent: 0, Start: 100, End: 900},
		{Name: layerFront, Parent: 1, Start: 200, End: 800},
		{Name: layerEntity, Parent: 2, Start: 250, End: 350},
		{Name: layerEntity, Parent: 2, Start: 300, End: 500}, // overlaps its sibling by 50
		{Name: layerSRead, Parent: 2, Start: 700, End: 850},  // runs 50 past its parent
	}
	got := selfTimes(spans)
	want := map[string]int64{
		layerClient: 200,       // 1000 - router's 800
		layerRouter: 200,       // 800 - front's 600
		layerFront:  600 - 350, // children cover 250..500 and 700..800
		layerEntity: 100 + 200,
		layerSRead:  150,
	}
	if !reflect.DeepEqual(got, want) {
		t.Errorf("self times %v, want %v", got, want)
	}
	// With well-nested spans the self times add up to the root span.
	nested := spans[:4]
	var sum int64
	for _, ns := range selfTimes(nested) {
		sum += ns
	}
	if sum != 1000 {
		t.Errorf("self times of a nested tree sum to %d, want the root's 1000", sum)
	}
}

func TestTracerNestsSpansPerRequest(t *testing.T) {
	tr := newTracer()
	a := tr.begin(1, layerClient)
	b := tr.begin(1, layerFront)
	other := tr.begin(2, layerClient) // another request does not disturb the nesting
	c := tr.begin(1, layerEntity)
	tr.end(1, c)
	tr.end(1, b)
	d := tr.begin(1, layerSRead)
	tr.end(1, d)
	tr.end(1, a)
	tr.end(2, other)
	var parents []int32
	for _, s := range tr.spans[1] {
		parents = append(parents, s.Parent)
		if s.End < s.Start {
			t.Errorf("span %s ends before it starts", s.Name)
		}
	}
	if want := []int32{-1, 0, 1, 0}; !reflect.DeepEqual(parents, want) {
		t.Errorf("parents %v, want %v", parents, want)
	}
	if tr.spans[2][0].Parent != -1 {
		t.Error("request 2's root has a parent")
	}
}
