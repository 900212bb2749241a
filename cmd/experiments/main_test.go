package main

import (
	"reflect"
	"strings"
	"testing"
)

func TestParseOnly(t *testing.T) {
	cases := []struct {
		list string
		want []string
		// errHas lists fragments the error must carry; nil means success.
		errHas []string
	}{
		{list: "", want: nil},
		{list: "figure3", want: []string{"figure3"}},
		{list: " Table1 , figure4,section61 ", want: []string{"table1", "figure4", "section61"}},
		{list: "table4", want: []string{"table4"}},
		{list: "table1,", want: []string{"table1"}},
		{list: "figur3", errHas: []string{`unknown experiment id "figur3"`, "table1", "figure6", "section61"}},
		{list: "table1,bogus", errHas: []string{`"bogus"`}},
		{list: "brickcrash", errHas: []string{"-scenario scenarios/brickcrash.toml", "figure3"}},
		// The elastic ring is gone, not moved: its ids are plain unknowns.
		{list: "elastic", errHas: []string{`unknown experiment id "elastic"`, "figure3"}},
		{list: "autoscale", errHas: []string{`unknown experiment id "autoscale"`, "figure3"}},
		{list: "brickslow", errHas: []string{"-scenario scenarios/brickslow.toml"}},
		{list: "figure1,fleet", errHas: []string{"-scenario scenarios/fleet.toml", "fleet-roundrobin.toml"}},
	}
	for _, tc := range cases {
		t.Run(tc.list, func(t *testing.T) {
			got, err := parseOnly(tc.list)
			if tc.errHas != nil {
				if err == nil {
					t.Fatalf("parseOnly(%q) = %v, want an error", tc.list, got)
				}
				for _, frag := range tc.errHas {
					if !strings.Contains(err.Error(), frag) {
						t.Fatalf("error %q lacks %q", err, frag)
					}
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			want := map[string]bool{}
			for _, id := range tc.want {
				want[id] = true
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("parseOnly(%q) = %v, want %v", tc.list, got, want)
			}
		})
	}
}
