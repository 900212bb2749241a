//go:build mutants

// Package mutants is the mutant registry: each row names a mechanism, a
// small edit that takes it out, and the tests that must fail without it.
// Run it with
//
//	go test -tags mutants ./internal/mutants
//
// or one row with -run 'TestMutants/<name>'. For each row the test copies
// the module into a temporary directory, requires the row's old text to
// occur exactly once in its file (so a refactor that moves the code fails
// the row until the row is updated), applies the edit there, and runs
// `go test -run <run> <pkg>`, which must fail. A mutant that does not
// compile kills nothing, so it fails its row too.
//
// A change that deletes a test keeps every row here killed, or deletes
// the mechanism together with its row.
package mutants

import (
	"bytes"
	"context"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// mutant is one row of the registry.
type mutant struct {
	name     string // the subtest name
	file     string // the file to edit, from the module root
	old, new string // the edit: old must occur exactly once in file
	pkg      string // the package whose tests must kill it
	run      string // the -run regexp naming the killing tests
	why      string // what the mechanism buys
}

func TestMutants(t *testing.T) {
	root, err := filepath.Abs(filepath.Join("..", ".."))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range registry {
		t.Run(m.name, func(t *testing.T) {
			src, err := os.ReadFile(filepath.Join(root, m.file))
			if err != nil {
				t.Fatal(err)
			}
			if n := strings.Count(string(src), m.old); n != 1 {
				t.Fatalf("%s holds the row's old text %d times, want 1: update the row", m.file, n)
			}
			dir := t.TempDir()
			copyModule(t, root, dir)
			mutated := strings.Replace(string(src), m.old, m.new, 1)
			if err := os.WriteFile(filepath.Join(dir, m.file), []byte(mutated), 0o644); err != nil {
				t.Fatal(err)
			}
			ctx, cancel := context.WithTimeout(context.Background(), 5*time.Minute)
			defer cancel()
			cmd := exec.CommandContext(ctx, "go", "test", "-count=1", "-timeout=3m", "-run", m.run, m.pkg)
			cmd.Dir = dir
			out, err := cmd.CombinedOutput()
			switch {
			case ctx.Err() != nil:
				t.Fatalf("go test did not finish: %v\n%s", ctx.Err(), out)
			case bytes.Contains(out, []byte("[build failed]")) || bytes.Contains(out, []byte("[setup failed]")):
				t.Fatalf("the mutant does not compile, so it shows nothing:\n%s", out)
			case err == nil:
				t.Fatalf("the mutant survived %s in %s: nothing guards that %s\n%s", m.run, m.pkg, m.why, out)
			}
		})
	}
}

// copyModule copies the module at root into dir, leaving out every
// directory whose name starts with a dot (.git, build outputs).
func copyModule(t *testing.T, root, dir string) {
	t.Helper()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		rel, err := filepath.Rel(root, path)
		if err != nil {
			return err
		}
		if d.IsDir() {
			if rel != "." && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return os.MkdirAll(filepath.Join(dir, rel), 0o755)
		}
		if !d.Type().IsRegular() {
			return nil
		}
		b, err := os.ReadFile(path)
		if err != nil {
			return err
		}
		return os.WriteFile(filepath.Join(dir, rel), b, 0o644)
	})
	if err != nil {
		t.Fatal(err)
	}
}
