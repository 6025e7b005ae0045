package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"regexp"
	"strconv"
	"strings"
	"time"
)

// serverProc is one ppdbserver process: the binary under test, started
// with -wal-dir and every other flag at its default, except the corpus it
// boots from, the table columns, and a loopback address with an ephemeral
// port. Its log (the access log included) goes to a file.
type serverProc struct {
	bin     string
	args    []string
	logPath string

	cmd    *exec.Cmd
	exited chan struct{}
	base   string // http://host:port
}

// serverArgs are the flags the benchmark passes; everything else is at
// its default (-wal-sync-interval 2ms, -wal-sync-every 64, -shards 0,
// -access-log true, no snapshots).
func serverArgs(corpusPath, cols, walDir string) []string {
	args := []string{"-corpus", corpusPath, "-addr", "127.0.0.1:0", "-wal-dir", walDir}
	if cols != "" {
		args = append(args, "-cols", cols)
	}
	return args
}

var listenRE = regexp.MustCompile(`event=listening addr=(\S+)`)

// start execs the server and returns once its listener address is logged.
func (s *serverProc) start() error {
	logf, err := os.OpenFile(s.logPath, os.O_CREATE|os.O_WRONLY|os.O_APPEND, 0o644)
	if err != nil {
		return err
	}
	// The child holds its own descriptor; ours is only for the seek.
	//lint:ignore errflow closing the parent's copy of a log descriptor the child writes through
	defer logf.Close()
	off, err := logf.Seek(0, io.SeekEnd)
	if err != nil {
		return err
	}
	s.cmd = exec.Command(s.bin, s.args...)
	s.cmd.Stdout, s.cmd.Stderr = logf, logf
	if err := s.cmd.Start(); err != nil {
		return fmt.Errorf("start server: %w", err)
	}
	s.exited = make(chan struct{})
	go func(cmd *exec.Cmd, done chan struct{}) {
		//lint:ignore errflow the exit status of a killed server is expected to be non-zero; exits are observed through done
		_ = cmd.Wait()
		close(done)
	}(s.cmd, s.exited)
	deadline := time.Now().Add(60 * time.Second)
	for time.Now().Before(deadline) {
		if m := listenRE.FindSubmatch(s.logSince(off)); m != nil {
			s.base = "http://" + string(m[1])
			return nil
		}
		select {
		case <-s.exited:
			return fmt.Errorf("server exited during start; log tail:\n%s", tail(s.logSince(off), 2000))
		case <-time.After(time.Millisecond):
		}
	}
	s.kill()
	return errors.New("server did not log its listener address within 60s")
}

func (s *serverProc) logSince(off int64) []byte {
	b, err := os.ReadFile(s.logPath)
	if err != nil || int64(len(b)) < off {
		return nil
	}
	return b[off:]
}

func tail(b []byte, n int) string {
	if len(b) > n {
		b = b[len(b)-n:]
	}
	return string(b)
}

// waitReady polls /v1/readyz until it answers 200.
func (s *serverProc) waitReady(c *http.Client) error {
	deadline := time.Now().Add(120 * time.Second)
	for time.Now().Before(deadline) {
		resp, err := c.Get(s.base + "/v1/readyz")
		if err == nil {
			//lint:ignore errflow the probe body carries nothing the status does not
			_, _ = io.Copy(io.Discard, resp.Body)
			//lint:ignore errflow a read-only response body; closing returns it to the pool
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return nil
			}
		}
		select {
		case <-s.exited:
			return errors.New("server exited before it was ready")
		case <-time.After(2 * time.Millisecond):
		}
	}
	return errors.New("server not ready within 120s")
}

// kill sends SIGKILL and waits for the process to be reaped.
func (s *serverProc) kill() {
	if s.cmd == nil || s.cmd.Process == nil {
		return
	}
	select {
	case <-s.exited:
		return
	default:
	}
	//lint:ignore errflow the process may already be gone; the wait below is what matters
	_ = s.cmd.Process.Kill()
	<-s.exited
}

// peakRSSMB reads VmHWM, the process's peak resident set, in MB.
func (s *serverProc) peakRSSMB() (float64, error) {
	b, err := os.ReadFile(filepath.Join("/proc", strconv.Itoa(s.cmd.Process.Pid), "status"))
	if err != nil {
		return 0, err
	}
	for _, line := range strings.Split(string(b), "\n") {
		if f := strings.Fields(line); len(f) >= 2 && f[0] == "VmHWM:" {
			kb, err := strconv.ParseFloat(f[1], 64)
			if err != nil {
				return 0, err
			}
			return kb / 1024, nil
		}
	}
	return 0, errors.New("VmHWM not found in /proc status")
}

// newClient is one closed-loop caller: one keep-alive connection.
func newClient() *http.Client {
	return &http.Client{
		Transport: &http.Transport{MaxIdleConnsPerHost: 1, MaxConnsPerHost: 1, DisableCompression: true},
		Timeout:   120 * time.Second,
	}
}

// call sends one request and reads the whole reply. keep asks for the body.
func call(c *http.Client, base, method, path string, body []byte, keep bool) (status int, out []byte, err error) {
	var rd io.Reader
	if body != nil {
		rd = bytes.NewReader(body)
	}
	req, err := http.NewRequest(method, base+path, rd)
	if err != nil {
		return 0, nil, err
	}
	resp, err := c.Do(req)
	if err != nil {
		return 0, nil, err
	}
	//lint:ignore errflow a read-only response body; the read below reports any failure
	defer resp.Body.Close()
	if keep || resp.StatusCode/100 != 2 {
		out, err = io.ReadAll(resp.Body)
	} else {
		_, err = io.Copy(io.Discard, resp.Body)
	}
	return resp.StatusCode, out, err
}
