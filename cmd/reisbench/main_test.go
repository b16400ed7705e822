package main

import (
	"maps"
	"reflect"
	"slices"
	"strings"
	"testing"
)

// TestResolve pins the one table every id list is derived from: `all`
// is the table itself, every id and alias resolves to its own row, no
// name is claimed twice, a sweep records scale 0 iff its help line says
// it runs a fixed corpus, a list names each experiment once, and a
// removed experiment is an error before anything runs.
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
		if e.fixed != strings.Contains(e.about, "fixed corpus") {
			t.Errorf("%s: fixed %v, but the help line is %q", e.id, e.fixed, e.about)
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
	// A list runs each experiment once, where it was first named — by id
	// or alias — so a -json report never holds two sections under one id.
	for exp, want := range map[string][]string{
		"throughput,fig8":      {"throughput", "fig7"},
		"fig7,fig8":            {"fig7"},
		"fig11,fig11":          {"fig11"},
		"fig8,throughput,fig7": {"fig7", "throughput"},
	} {
		got, err := resolve(exp)
		ids := make([]string, len(got))
		for i, e := range got {
			ids[i] = e.id
		}
		if err != nil || !slices.Equal(ids, want) {
			t.Errorf("resolve(%q) = %v, %v; want %v", exp, ids, err, want)
		}
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
		QPS     float64 `gate:"exact"`
		embedded
	}
	roles, err := rolesOf(reflect.TypeFor[good]())
	if want := map[string]string{"Dataset": "id", "QPS": "exact", "Share": "busy"}; err != nil || !maps.Equal(roles, want) {
		t.Errorf("rolesOf(good) = %v, %v; want %v", roles, err, want)
	}
	type untagged struct {
		Dataset string `gate:"id"`
		QPS     float64
	}
	type renamed struct {
		Dataset string  `gate:"id"`
		QPS     float64 `gate:"exact" json:"qps"`
	}
	refused := []reflect.Type{reflect.TypeFor[untagged](), reflect.TypeFor[renamed]()}
	// An unknown role, and the three retired ones: the model clock is
	// exact, the wall clock report-only.
	for _, role := range []string{"gated", "drop", "rise", "wall"} {
		refused = append(refused, reflect.StructOf([]reflect.StructField{
			{Name: "Dataset", Type: reflect.TypeFor[string](), Tag: `gate:"id"`},
			{Name: "QPS", Type: reflect.TypeFor[float64](), Tag: reflect.StructTag(`gate:"` + role + `"`)},
		}))
	}
	for _, typ := range refused {
		if roles, err := rolesOf(typ); err == nil {
			t.Errorf("rolesOf(%s) = %v, want an error", typ, roles)
		}
	}
}
