package main

import (
	"path/filepath"
	"testing"

	"repro/cmd/internal/cli"
)

// TestResolveRejectsDuplicateLabels pins the unique-label rule: runs, the
// journal and the delta table are keyed by scenario label, so a repeated
// registry name — or a spec file whose name collides with a registry
// entry — must be refused up front as a usage error (exit 2) instead of
// silently dropping completed runs from the stitched table.
func TestResolveRejectsDuplicateLabels(t *testing.T) {
	spec := filepath.Join("..", "..", "internal", "scenario", "testdata", "default-covid.json")
	for _, names := range []string{
		"default-covid,default-covid",
		"no-pandemic,default-covid,no-pandemic",
		"default-covid," + spec,
	} {
		scens, err := resolve(names)
		if err == nil {
			t.Errorf("resolve(%q) accepted %d entries with a repeated label", names, len(scens))
			continue
		}
		if code := cli.ExitCode(err); code != cli.CodeUsage {
			t.Errorf("resolve(%q): exit code %d, want %d (usage): %v", names, code, cli.CodeUsage, err)
		}
	}
	scens, err := resolve("default-covid,no-pandemic")
	if err != nil || len(scens) != 2 {
		t.Fatalf("resolve of distinct names: %d entries, err %v", len(scens), err)
	}
}
