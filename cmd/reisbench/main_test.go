package main

import (
	"maps"
	"reflect"
	"slices"
	"testing"
)

// TestResolve pins the one table every id list is derived from: `all`
// is the table itself, every id and alias resolves to its own row, no
// name is claimed twice, and a removed experiment is an error before
// anything runs.
func TestResolve(t *testing.T) {
	all, err := resolve("all")
	if err != nil || len(all) != len(experimentTable) {
		t.Fatalf("resolve(all) = %d experiments, %v; want the table's %d", len(all), err, len(experimentTable))
	}
	seen := map[string]bool{"all": true}
	for i, e := range experimentTable {
		if all[i].id != e.id {
			t.Errorf("all[%d] = %q, want table order %q", i, all[i].id, e.id)
		}
		if e.run == nil || e.about == "" {
			t.Errorf("%s: missing run or help line", e.id)
		}
		for _, name := range append([]string{e.id}, e.aliases...) {
			if seen[name] {
				t.Errorf("name %q claimed twice", name)
			}
			seen[name] = true
			got, err := resolve(name)
			if err != nil || len(got) != 1 || got[0].id != e.id {
				t.Errorf("resolve(%q) = %v, %v; want %q", name, got, err, e.id)
			}
		}
	}
	if got, err := resolve("throughput,fig8"); err != nil || len(got) != 2 || got[0].id != "throughput" || got[1].id != "fig7" {
		t.Errorf("resolve(throughput,fig8) = %v, %v", got, err)
	}
	for _, bad := range []string{"replicas", "throughput,nope", ""} {
		if _, err := resolve(bad); err == nil {
			t.Errorf("resolve(%q) succeeded", bad)
		}
	}
}

// TestEveryRowColumnHasOneRole: every column an experiment writes to
// -json carries exactly one known gate role, read from its row type's
// `gate` tags, and every section has an identity. rolesOf refuses a
// field with no role, a role benchdiff does not know, and a -json key
// that no tagged field stands behind.
func TestEveryRowColumnHasOneRole(t *testing.T) {
	for _, e := range experimentTable {
		if e.err != nil {
			t.Errorf("%s: %v", e.id, e.err)
			continue
		}
		if !slices.Contains(slices.Collect(maps.Values(e.roles)), "id") {
			t.Errorf("%s: no id column in %v", e.id, e.roles)
		}
	}
	type embedded struct {
		Share float64 `gate:"busy"`
	}
	type good struct {
		Dataset string  `gate:"id"`
		QPS     float64 `gate:"drop"`
		embedded
	}
	roles, err := rolesOf(reflect.TypeFor[good]())
	if want := map[string]string{"Dataset": "id", "QPS": "drop", "Share": "busy"}; err != nil || !maps.Equal(roles, want) {
		t.Errorf("rolesOf(good) = %v, %v; want %v", roles, err, want)
	}
	type untagged struct {
		Dataset string `gate:"id"`
		QPS     float64
	}
	type unknown struct {
		Dataset string  `gate:"id"`
		QPS     float64 `gate:"gated"`
	}
	type renamed struct {
		Dataset string  `gate:"id"`
		QPS     float64 `gate:"drop" json:"qps"`
	}
	for _, typ := range []reflect.Type{reflect.TypeFor[untagged](), reflect.TypeFor[unknown](), reflect.TypeFor[renamed]()} {
		if roles, err := rolesOf(typ); err == nil {
			t.Errorf("rolesOf(%s) = %v, want an error", typ, roles)
		}
	}
}
