package main

import (
	"bufio"
	"crypto/sha256"
	"encoding/hex"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"strings"
)

// host fingerprints where and on what a result was measured.
type host struct {
	CPU    string `json:"cpu"`
	Nproc  int    `json:"nproc"`
	Go     string `json:"go"`
	OS     string `json:"os"`
	Commit string `json:"commit"`
}

func fingerprint() host {
	return host{
		CPU:    cpuModel(),
		Nproc:  runtime.NumCPU(),
		Go:     runtime.Version(),
		OS:     runtime.GOOS + "/" + runtime.GOARCH,
		Commit: commit("."),
	}
}

func cpuModel() string {
	f, err := os.Open("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if k, v, ok := strings.Cut(sc.Text(), ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

// commit names the source under test: the git commit when root is a
// work tree (suffixed "+dirty" with local changes), otherwise a digest of
// the Go sources and module files, which is what a plain checkout has.
func commit(root string) string {
	if _, err := os.Stat(filepath.Join(root, ".git")); err != nil {
		return sourceDigest(root)
	}
	if out, err := exec.Command("git", "-C", root, "rev-parse", "HEAD").Output(); err == nil {
		c := strings.TrimSpace(string(out))
		if st, err := exec.Command("git", "-C", root, "status", "--porcelain", "--untracked-files=no").Output(); err == nil && len(st) > 0 {
			c += "+dirty"
		}
		return c
	}
	return sourceDigest(root)
}

// sourceDigest hashes the Go sources and module files under root, skipping
// hidden directories (the build output among them).
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
		io.WriteString(h, path+"\x00")
		_, err = io.Copy(h, f)
		return err
	})
	if err != nil {
		return "unknown"
	}
	return "src-sha256:" + hex.EncodeToString(h.Sum(nil))[:16]
}
