package main

import (
	"bufio"
	"fmt"
	"net"
	"os/exec"
	"runtime"
	"strings"
	"syscall"
	"testing"
	"time"
)

func TestParseSize(t *testing.T) {
	tests := []struct {
		give    string
		want    int64
		wantErr bool
	}{
		{give: "1024", want: 1024},
		{give: "64MiB", want: 64 << 20},
		{give: "512KiB", want: 512 << 10},
		{give: "2GiB", want: 2 << 30},
		{give: "1.5MiB", want: 3 << 19},
		{give: "64MB", want: 64_000_000},
		{give: "5KB", want: 5000},
		{give: "1GB", want: 1_000_000_000},
		{give: "100B", want: 100},
		{give: "abc", wantErr: true},
		{give: "12XiB", wantErr: true},
		{give: "", wantErr: true},
	}
	for _, tt := range tests {
		got, err := parseSize(tt.give)
		if tt.wantErr {
			if err == nil {
				t.Errorf("parseSize(%q) should error", tt.give)
			}
			continue
		}
		if err != nil {
			t.Errorf("parseSize(%q): %v", tt.give, err)
			continue
		}
		if got != tt.want {
			t.Errorf("parseSize(%q) = %d, want %d", tt.give, got, tt.want)
		}
	}
}

func TestDefaultShards(t *testing.T) {
	procs := runtime.GOMAXPROCS(0)
	if got := defaultShards(1 << 30); got != procs {
		t.Errorf("defaultShards(1GiB) = %d, want GOMAXPROCS (%d)", got, procs)
	}
	// Small caches never over-shard: each shard keeps >= 8MiB.
	if got := defaultShards(8 << 20); got != 1 {
		t.Errorf("defaultShards(8MiB) = %d, want 1", got)
	}
	if got := defaultShards(1 << 10); got != 1 {
		t.Errorf("defaultShards(1KiB) = %d, want 1", got)
	}
	if procs >= 2 {
		if got := defaultShards(16 << 20); got != 2 {
			t.Errorf("defaultShards(16MiB) = %d, want 2", got)
		}
	}
}

// TestSIGTERMGracefulExitCode is the end-to-end pin for the signal path: a
// real campsrv process, a client with pipelined noreply writes in flight,
// SIGTERM — and the process must drain the pipeline, answer the trailing
// replied command, flush, and exit 0.
func TestSIGTERMGracefulExitCode(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs the campsrv binary")
	}
	bin := t.TempDir() + "/campsrv"
	if out, err := exec.Command("go", "build", "-o", bin, ".").CombinedOutput(); err != nil {
		t.Fatalf("go build: %v\n%s", err, out)
	}

	srv := exec.Command(bin,
		"-addr", "127.0.0.1:0", "-mem", "8MiB", "-shards", "2",
		"-data-dir", t.TempDir(), "-drain-timeout", "2s")
	stdout, err := srv.StdoutPipe()
	if err != nil {
		t.Fatal(err)
	}
	srv.Stderr = srv.Stdout
	if err := srv.Start(); err != nil {
		t.Fatal(err)
	}
	defer srv.Process.Kill()

	// The bound address is in the startup banner.
	sc := bufio.NewScanner(stdout)
	var addr string
	for sc.Scan() {
		line := sc.Text()
		t.Logf("campsrv: %s", line)
		if strings.HasPrefix(line, "campsrv listening on ") {
			addr = strings.Fields(line)[3]
			break
		}
	}
	if addr == "" {
		t.Fatalf("no listen banner (scanner err %v)", sc.Err())
	}
	go func() { // keep draining the pipe so the child never blocks on stdout
		for sc.Scan() {
		}
	}()

	conn, err := net.Dial("tcp", addr)
	if err != nil {
		t.Fatal(err)
	}
	defer conn.Close()
	// One round trip first: the drain covers connections the server has
	// accepted, and a SIGTERM racing the accept would reset this one.
	br := bufio.NewReader(conn)
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	if _, err := conn.Write([]byte("version\r\n")); err != nil {
		t.Fatal(err)
	}
	if line, err := br.ReadString('\n'); err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("reply before SIGTERM = %q, %v; want VERSION", line, err)
	}
	var pipe strings.Builder
	for i := 0; i < 200; i++ {
		fmt.Fprintf(&pipe, "set sig:%03d 0 0 3 noreply\r\nv%02d\r\n", i, i%100)
	}
	pipe.WriteString("version\r\n")
	if _, err := conn.Write([]byte(pipe.String())); err != nil {
		t.Fatal(err)
	}

	if err := srv.Process.Signal(syscall.SIGTERM); err != nil {
		t.Fatal(err)
	}
	conn.SetReadDeadline(time.Now().Add(10 * time.Second))
	line, err := br.ReadString('\n')
	if err != nil || !strings.HasPrefix(line, "VERSION") {
		t.Fatalf("reply after SIGTERM = %q, %v; want VERSION", line, err)
	}
	conn.Close() // let the drain finish without waiting out the grace window

	waitErr := make(chan error, 1)
	go func() { waitErr <- srv.Wait() }()
	select {
	case err := <-waitErr:
		if err != nil {
			t.Fatalf("campsrv exited non-zero: %v", err)
		}
	case <-time.After(15 * time.Second):
		t.Fatal("campsrv did not exit after SIGTERM")
	}
}
