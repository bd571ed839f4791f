package main

import (
	"bufio"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"os/exec"
	"path/filepath"
	"slices"
	"strconv"
	"strings"
	"sync"
	"syscall"
	"time"
)

// server is one campsrv process the driver started.
type server struct {
	cmd     *exec.Cmd
	addr    string
	started time.Time
	logPath string
	drained chan struct{} // closed once its stdout is copied to the log
}

// live tracks running servers so an interrupted driver can kill them.
var live struct {
	sync.Mutex
	m map[*server]struct{}
}

// startServer execs campsrv with args plus a loopback listen address and
// returns once it reports its address. Its output goes to logPath.
func startServer(bin string, args []string, logPath string) (*server, error) {
	logf, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	pr, pw, err := os.Pipe()
	if err != nil {
		logf.Close()
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", "127.0.0.1:0"}, args...)...)
	// The server runs at its default GOMAXPROCS, one P per CPU.
	cmd.Env = slices.DeleteFunc(os.Environ(), func(kv string) bool { return strings.HasPrefix(kv, "GOMAXPROCS=") })
	cmd.Stdout = pw
	cmd.Stderr = logf
	// The kernel kills the server if the driver dies without cleaning up.
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	s := &server{cmd: cmd, logPath: logPath, drained: make(chan struct{})}
	s.started = time.Now()
	err = cmd.Start()
	pw.Close()
	if err != nil {
		pr.Close()
		logf.Close()
		return nil, fmt.Errorf("start campsrv: %w", err)
	}
	live.Lock()
	if live.m == nil {
		live.m = make(map[*server]struct{})
	}
	live.m[s] = struct{}{}
	live.Unlock()

	// The first stdout line announces the listen address; the rest of the
	// output is copied to the log until the server exits.
	addrc := make(chan string, 1)
	go func() {
		defer close(s.drained)
		defer logf.Close()
		defer pr.Close()
		br := bufio.NewReader(pr)
		line, err := br.ReadString('\n')
		io.WriteString(logf, line)
		if rest, ok := strings.CutPrefix(line, "campsrv listening on "); ok && err == nil {
			addr, _, _ := strings.Cut(rest, " ")
			addrc <- addr
		}
		close(addrc)
		io.Copy(logf, br)
	}()
	select {
	case addr, ok := <-addrc:
		if ok {
			s.addr = addr
			return s, nil
		}
	case <-time.After(60 * time.Second):
	}
	s.kill()
	return nil, fmt.Errorf("campsrv did not start; log:\n%s", tail(logPath))
}

// kill SIGKILLs the server and waits until it and its output copy are done.
func (s *server) kill() {
	s.cmd.Process.Kill()
	s.cmd.Wait()
	<-s.drained
	live.Lock()
	delete(live.m, s)
	live.Unlock()
}

// killAll kills every server still running.
func killAll() {
	live.Lock()
	ss := make([]*server, 0, len(live.m))
	for s := range live.m {
		ss = append(ss, s)
	}
	live.Unlock()
	for _, s := range ss {
		s.kill()
	}
}

func (s *server) pid() int { return s.cmd.Process.Pid }

// tail returns the last lines of a log file for error messages.
func tail(path string) string {
	b, _ := os.ReadFile(path)
	lines := strings.Split(strings.TrimSpace(string(b)), "\n")
	if len(lines) > 20 {
		lines = lines[len(lines)-20:]
	}
	return strings.Join(lines, "\n")
}

// clockTick is the unit of /proc/<pid>/stat CPU times (USER_HZ, 100 on
// Linux).
const clockTick = 10 * time.Millisecond

// procCPU returns a process's user plus system CPU time.
func procCPU(pid int) (time.Duration, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/stat", pid))
	if err != nil {
		return 0, err
	}
	// Fields after the parenthesised command name; utime and stime are
	// fields 14 and 15 of the whole line.
	i := strings.LastIndexByte(string(b), ')')
	if i < 0 {
		return 0, errors.New("malformed /proc stat")
	}
	f := strings.Fields(string(b[i+1:]))
	if len(f) < 13 {
		return 0, errors.New("short /proc stat")
	}
	ut, err1 := strconv.ParseInt(f[11], 10, 64)
	st, err2 := strconv.ParseInt(f[12], 10, 64)
	if err1 != nil || err2 != nil {
		return 0, errors.New("malformed /proc stat times")
	}
	return time.Duration(ut+st) * clockTick, nil
}

// procHWM returns a process's peak resident set size (VmHWM) in bytes.
func procHWM(pid int) (int64, error) {
	b, err := os.ReadFile(fmt.Sprintf("/proc/%d/status", pid))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if rest, ok := strings.CutPrefix(line, "VmHWM:"); ok {
			kb, err := strconv.ParseInt(strings.TrimSuffix(strings.TrimSpace(rest), " kB"), 10, 64)
			if err != nil {
				return 0, fmt.Errorf("parse VmHWM: %w", err)
			}
			return kb << 10, nil
		}
	}
	return 0, errors.New("no VmHWM in /proc status")
}

// selfCPU returns the driver's own user plus system CPU time.
func selfCPU() time.Duration {
	var ru syscall.Rusage
	syscall.Getrusage(syscall.RUSAGE_SELF, &ru)
	return time.Duration(ru.Utime.Nano() + ru.Stime.Nano())
}

// dirBytes sums the sizes of the regular files under dir.
func dirBytes(dir string) (int64, error) {
	var n int64
	err := filepath.WalkDir(dir, func(_ string, d fs.DirEntry, err error) error {
		if err != nil || !d.Type().IsRegular() {
			return err
		}
		info, err := d.Info()
		if err != nil {
			return err
		}
		n += info.Size()
		return nil
	})
	return n, err
}
