package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"strconv"
	"time"

	"repro/perfbench/pass"
)

// Users run `tables` as a fresh process, so set-up time and every
// untraced pass are measured in fresh passchild processes, built next
// to this binary. A child prints "ready" once it has built its Runner
// and work could be submitted, then one JSON line with its result.

const readyLine = "ready"

// childRun is one finished child process as the parent saw it.
type childRun struct {
	setup  time.Duration // process start to "ready"
	result pass.Result
}

// spawn runs one pass of kind k at seed in a fresh child process, times
// it to its ready line and decodes its result line.
func spawn(k pass.Kind, seed uint64) (childRun, error) {
	self, err := os.Executable()
	if err != nil {
		return childRun{}, err
	}
	bin := filepath.Join(filepath.Dir(self), "passchild")
	cmd := exec.Command(bin, "--kind", k.Name, "--seed", strconv.FormatUint(seed, 10))
	cmd.Stderr = os.Stderr
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return childRun{}, err
	}
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return childRun{}, err
	}
	var out childRun
	var result []byte
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 64<<20)
	ready := false
	for sc.Scan() {
		if !ready {
			if sc.Text() == readyLine {
				out.setup = time.Since(t0)
				ready = true
			}
			continue
		}
		result = append(result[:0], sc.Bytes()...)
	}
	_, _ = io.Copy(io.Discard, stdout)
	if err := cmd.Wait(); err != nil {
		return out, fmt.Errorf("child %s: %w", k.Name, err)
	}
	if !ready || len(result) == 0 {
		return out, fmt.Errorf("child %s printed no result", k.Name)
	}
	return out, json.Unmarshal(result, &out.result)
}
