package main

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"time"
	"unsafe"

	"retrograde/internal/awari"
)

// buildSample is what one rabuild process cost, seen from outside.
type buildSample struct {
	wall, cpu, setup time.Duration
	maxRSS           uint64 // bytes, from the child's rusage
	exitErr          error
	stderr           string
}

// buildRun launches rabuild back to back until the window is spent (at
// least once), verifying every rung each build wrote against the oracle.
// An operation is a rung; a rung fails when it is missing or wrong.
func buildRun(w workload, o options, work string, window time.Duration) (*outcome, error) {
	res := &outcome{}
	var walls, cpus, rss, setups []float64
	start := time.Now()
	for i := 0; i == 0 || time.Since(start) < window; i++ {
		out := filepath.Join(work, fmt.Sprintf("build-%d", i))
		s, err := timeBuild(filepath.Join(o.bin, "rabuild"), w, out)
		if err != nil {
			return nil, err
		}
		if s.exitErr != nil {
			res.summary = append(res.summary, fmt.Sprintf("rabuild failed: %v: %s", s.exitErr, s.stderr))
		}
		bad, err := verifyLadder(out, w.stones)
		if err != nil {
			return nil, err
		}
		res.summary = append(res.summary, bad...)
		res.attempted += uint64(w.stones + 1)
		res.failed += uint64(len(bad))
		if err := os.RemoveAll(out); err != nil {
			return nil, err
		}
		walls = append(walls, s.wall.Seconds())
		cpus = append(cpus, s.cpu.Seconds())
		rss = append(rss, float64(s.maxRSS)/mib)
		setups = append(setups, s.setup.Seconds())
	}
	var positions uint64
	for n := 0; n <= w.stones; n++ {
		positions += awari.Size(n)
	}
	wall := median(walls)
	res.metrics = map[string]float64{
		"wall_s":       wall,
		"cpu_s":        median(cpus),
		"peak_rss_mib": median(rss),
		"setup_s":      median(setups),
		"qps":          float64(positions) / wall,
		"p50_us":       wall * 1e6,
	}
	res.summary = append(res.summary,
		fmt.Sprintf("%s: %d builds, wall %s s, cpu %s s, peak RSS %s MiB, first rung after %s s",
			w.name, len(walls), list(walls), list(cpus), list(rss), list(setups)),
		fmt.Sprintf("%s: %d positions per ladder", w.name, positions))
	return res, nil
}

func list(xs []float64) string {
	parts := make([]string, len(xs))
	for i, x := range xs {
		parts[i] = fmt.Sprintf("%.4g", x)
	}
	return "[" + strings.Join(parts, " ") + "]"
}

// timeBuild runs one rabuild into out (created empty). Set-up time is
// launch until the first rung file is closed after writing, observed
// through inotify so the build is not slowed by polling.
func timeBuild(bin string, w workload, out string) (buildSample, error) {
	var s buildSample
	if err := os.MkdirAll(out, 0o755); err != nil {
		return s, err
	}
	args := w.rabuildArgs(out)
	fd, err := syscall.InotifyInit1(syscall.IN_CLOEXEC)
	if err != nil {
		return s, fmt.Errorf("inotify: %w", err)
	}
	defer syscall.Close(fd)
	if _, err := syscall.InotifyAddWatch(fd, out, syscall.IN_CLOSE_WRITE|syscall.IN_MOVED_TO); err != nil {
		return s, fmt.Errorf("inotify watch %s: %w", out, err)
	}

	var stderr bytes.Buffer
	cmd := exec.Command(bin, args...)
	cmd.Stderr = &stderr
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	first := make(chan time.Time, 1)
	t0 := time.Now()
	if err := cmd.Start(); err != nil {
		return s, err
	}
	go func() { first <- firstRung(fd) }()
	s.exitErr = cmd.Wait()
	s.wall = time.Since(t0)
	// Wake the reader if the build wrote no rung at all.
	if err := os.WriteFile(filepath.Join(out, sentinel), nil, 0o644); err != nil {
		return s, err
	}
	if t := <-first; !t.IsZero() {
		s.setup = t.Sub(t0)
	}
	s.cpu = cmd.ProcessState.UserTime() + cmd.ProcessState.SystemTime()
	if ru, ok := cmd.ProcessState.SysUsage().(*syscall.Rusage); ok {
		s.maxRSS = uint64(ru.Maxrss) << 10 // Linux reports KiB
	}
	s.stderr = strings.TrimSpace(stderr.String())
	return s, os.Remove(filepath.Join(out, sentinel))
}

const sentinel = ".perfbench-done"

// firstRung blocks until a rung file is closed after writing, returning
// when it was seen, or the zero time when the sentinel came first.
func firstRung(fd int) time.Time {
	var buf [4096]byte
	for {
		n, err := syscall.Read(fd, buf[:])
		if err != nil {
			if errors.Is(err, syscall.EINTR) {
				continue
			}
			return time.Time{}
		}
		now := time.Now()
		for off := 0; off+syscall.SizeofInotifyEvent <= n; {
			ev := (*syscall.InotifyEvent)(unsafe.Pointer(&buf[off]))
			name := buf[off+syscall.SizeofInotifyEvent : off+syscall.SizeofInotifyEvent+int(ev.Len)]
			off += syscall.SizeofInotifyEvent + int(ev.Len)
			file := string(bytes.TrimRight(name, "\x00"))
			switch {
			case file == sentinel:
				return time.Time{}
			case strings.HasPrefix(file, "awari-") && strings.HasSuffix(file, ".radb"):
				return now
			}
		}
	}
}
