package main

import (
	"crypto/sha256"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"runtime/debug"
	"strings"
)

// runner records the machine and the code a result was measured on.
type runner struct {
	Nproc      int     `json:"nproc"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	CPU        string  `json:"cpu_model"`
	Go         string  `json:"go_version"`
	Commit     string  `json:"commit"`
	Dirty      *bool   `json:"dirty"`
	Source     string  `json:"source_sha256"`
	Seed       uint64  `json:"seed"`
	Workload   string  `json:"workload"`
	Scale      scale   `json:"scale"`
	Seconds    float64 `json:"seconds"`
	Trace      bool    `json:"trace"`
}

// runnerRecord describes this run. Commit and dirty come from the VCS
// stamp of the build, which exists only when the benchmark was built
// inside a git work tree; source_sha256 identifies the measured code
// either way.
func runnerRecord(rc runConfig, root string) runner {
	rn := runner{
		Nproc: runtime.NumCPU(), GOMAXPROCS: runtime.GOMAXPROCS(0), CPU: cpuModel(), Go: runtime.Version(),
		Commit: "unknown", Source: sourceDigest(root),
		Seed: rc.seed, Workload: rc.wl.name, Scale: rc.sc, Seconds: rc.budget.Seconds(), Trace: rc.trace,
	}
	if bi, ok := debug.ReadBuildInfo(); ok {
		for _, s := range bi.Settings {
			switch s.Key {
			case "vcs.revision":
				rn.Commit = s.Value
			case "vcs.modified":
				dirty := s.Value == "true"
				rn.Dirty = &dirty
			}
		}
	}
	return rn
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return runtime.GOARCH
	}
	for _, line := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return runtime.GOARCH
}

// sourceDigest hashes the Go sources and module files under root, in
// path order, skipping hidden directories (VCS metadata, build output).
func sourceDigest(root string) string {
	h := sha256.New()
	err := filepath.WalkDir(root, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			if path != root && strings.HasPrefix(d.Name(), ".") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(path, ".go") && d.Name() != "go.mod" {
			return nil
		}
		f, err := os.Open(path)
		if err != nil {
			return err
		}
		defer f.Close()
		rel, _ := filepath.Rel(root, path)
		io.WriteString(h, filepath.ToSlash(rel)+"\n")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return sum(h)
}
