package main

import "testing"

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
