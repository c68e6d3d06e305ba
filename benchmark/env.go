package main

import (
	"os"
	"runtime"
	"runtime/debug"
	"strings"
)

// envelope records where a set of numbers came from, so a figure is never
// read apart from the machine and commit that produced it.
type envelope struct {
	GitSHA     string `json:"git_sha"`
	GitDirty   bool   `json:"git_dirty"`
	GoVersion  string `json:"go_version"`
	GOMAXPROCS int    `json:"gomaxprocs"`
	PinnedCPU  int    `json:"pinned_cpu"` // -1: not pinned
	NumCPU     int    `json:"nproc"`
	CPUModel   string `json:"cpu_model"`
	Kernel     string `json:"kernel"`
}

func readEnvelope() envelope {
	env := envelope{
		GitSHA:     "unknown", // a checkout without .git carries no stamp
		GoVersion:  runtime.Version(),
		GOMAXPROCS: runtime.GOMAXPROCS(0),
		PinnedCPU:  pinnedCPU,
		NumCPU:     runtime.NumCPU(),
		CPUModel:   "unknown",
		Kernel:     "unknown",
	}
	if info, ok := debug.ReadBuildInfo(); ok {
		for _, s := range info.Settings {
			switch s.Key {
			case "vcs.revision":
				env.GitSHA = s.Value
			case "vcs.modified":
				env.GitDirty = s.Value == "true"
			}
		}
	}
	if raw, err := os.ReadFile("/proc/cpuinfo"); err == nil {
		for _, line := range strings.Split(string(raw), "\n") {
			if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
				env.CPUModel = strings.TrimSpace(v)
				break
			}
		}
	}
	if raw, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		env.Kernel = strings.TrimSpace(string(raw))
	}
	return env
}
