package main

import (
	"bufio"
	"fmt"
	"os"
	"path/filepath"
	"runtime"
	"strings"
)

// fingerprint identifies the runner, so numbers from different
// machines are never compared unknowingly. It heads every document the
// benchmark writes.
type fingerprint struct {
	CPU      string `json:"cpu"`
	NProc    int    `json:"nproc"`
	GenProcs int    `json:"generator_gomaxprocs"`
	GwProcs  int    `json:"gateway_gomaxprocs"`
	Kernel   string `json:"kernel"`
	Go       string `json:"go"`
	Seed     uint64 `json:"seed"`
	Commit   string `json:"commit"`
	Link     string `json:"link"`
}

func fingerprintOf(root string, seed uint64, procs int) fingerprint {
	fp := fingerprint{
		CPU: "unknown", NProc: runtime.NumCPU(), GenProcs: procs, GwProcs: procs,
		Kernel: "unknown", Go: runtime.Version(), Seed: seed, Commit: gitCommit(root),
		Link: "host loopback (127.0.0.1), not a real link",
	}
	if f, err := os.Open("/proc/cpuinfo"); err == nil {
		sc := bufio.NewScanner(f)
		for sc.Scan() {
			if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
				fp.CPU = strings.TrimSpace(v)
				break
			}
		}
		f.Close()
	}
	if b, err := os.ReadFile("/proc/sys/kernel/osrelease"); err == nil {
		fp.Kernel = strings.TrimSpace(string(b))
	}
	return fp
}

// gitCommit reads HEAD straight from .git; the driver's checkout is
// not a repository, and there it reads "unknown".
func gitCommit(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return "unknown"
	}
	ref, ok := strings.CutPrefix(strings.TrimSpace(string(head)), "ref: ")
	if !ok {
		return strings.TrimSpace(string(head))
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", ref)); err == nil {
		return strings.TrimSpace(string(b))
	}
	return "unknown"
}

func (fp fingerprint) print() {
	for _, line := range fp.lines() {
		fmt.Println("# " + line)
	}
}

func (fp fingerprint) lines() []string {
	return []string{
		fmt.Sprintf("runner: %s, nproc %d, kernel %s, %s", fp.CPU, fp.NProc, fp.Kernel, fp.Go),
		fmt.Sprintf("GOMAXPROCS: generator %d, gateway %d; seed %d; commit %s", fp.GenProcs, fp.GwProcs, fp.Seed, fp.Commit),
		"link: " + fp.Link,
	}
}
