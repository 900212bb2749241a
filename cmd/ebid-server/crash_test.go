package main

import (
	"bytes"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/cookiejar"
	"os"
	"os/exec"
	"os/signal"
	"path/filepath"
	"strconv"
	"strings"
	"syscall"
	"testing"
	"time"
)

// serverEnv, when set, makes the test binary run main with its own
// arguments: the crash tests start the server as a real process this way,
// with nothing to build.
const serverEnv = "EBID_SERVER_TEST_MAIN"

func TestMain(m *testing.M) {
	if os.Getenv(serverEnv) != "" {
		main()
		return
	}
	os.Exit(m.Run())
}

// server is one incarnation of ebid-server, run from the test binary.
type server struct {
	cmd    *exec.Cmd
	base   string // http://addr/ebid/
	client *http.Client
	log    bytes.Buffer // read only after the process is reaped
}

// startServer runs the server on addr with the WAL file wal and waits until
// /healthz answers 200. The process is killed at the end of the test if it
// is still running.
func startServer(t *testing.T, addr, wal string) *server {
	t.Helper()
	s := &server{base: "http://" + addr + "/ebid/"}
	s.cmd = exec.Command(os.Args[0], "-addr", addr, "-wal", wal, "-users", "20", "-items", "50")
	s.cmd.Env = append(os.Environ(), serverEnv+"=1")
	s.cmd.Stderr = &s.log
	if err := s.cmd.Start(); err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() {
		if s.cmd.ProcessState == nil {
			_ = s.cmd.Process.Kill()
			_ = s.cmd.Wait()
		}
	})
	jar, _ := cookiejar.New(nil) // fails only on a bad option
	s.client = &http.Client{Jar: jar, Timeout: 10 * time.Second}
	for deadline := time.Now().Add(20 * time.Second); ; time.Sleep(20 * time.Millisecond) {
		resp, err := s.client.Get("http://" + addr + "/healthz")
		if err == nil {
			resp.Body.Close()
			if resp.StatusCode == http.StatusOK {
				return s
			}
		}
		if time.Now().After(deadline) {
			_ = s.cmd.Process.Kill()
			_ = s.cmd.Wait()
			t.Fatalf("the server did not come up on %s:\n%s", addr, s.log.String())
		}
	}
}

// get runs one eBid operation and returns its status and page.
func (s *server) get(t *testing.T, op string) (int, string) {
	t.Helper()
	resp, err := s.client.Get(s.base + op)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		t.Fatalf("%s: %v", op, err)
	}
	return resp.StatusCode, string(body)
}

// must runs op and requires a 200 whose page holds want.
func (s *server) must(t *testing.T, op, want string) string {
	t.Helper()
	code, body := s.get(t, op)
	if code != http.StatusOK || !strings.Contains(body, want) {
		t.Fatalf("%s answered %d %q, want 200 with %q", op, code, body, want)
	}
	return body
}

// number runs op, requires a 200, and returns the number its page shows
// right after prefix.
func (s *server) number(t *testing.T, op, prefix string) int {
	t.Helper()
	body := s.must(t, op, prefix)
	_, rest, _ := strings.Cut(body, prefix)
	end := strings.IndexFunc(rest, func(r rune) bool { return r < '0' || r > '9' })
	if end < 0 {
		end = len(rest)
	}
	n, err := strconv.Atoi(rest[:end])
	if err != nil {
		t.Fatalf("%s page %q: %v", op, body, err)
	}
	return n
}

// bids is the count ViewBidHistory shows for item.
func (s *server) bids(t *testing.T, item int) int {
	t.Helper()
	return s.number(t, fmt.Sprintf("ViewBidHistory?item=%d", item), "bid history: ")
}

// freeAddr returns a loopback address no one listens on now.
func freeAddr(t *testing.T) string {
	t.Helper()
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	return l.Addr().String()
}

// TestCrashKeepsEveryAcknowledgedWrite is the crash-only contract on a real
// process. One client registers users and commits bids, one at a time; the
// server is killed, started again on the same WAL file, and must show every
// acknowledged write exactly once. SIGTERM and SIGINT must kill it as
// SIGKILL does: at once, by the signal, with no drain and no exit code.
func TestCrashKeepsEveryAcknowledgedWrite(t *testing.T) {
	for _, tc := range []struct {
		name string
		sig  syscall.Signal
	}{{"SIGKILL", syscall.SIGKILL}, {"SIGTERM", syscall.SIGTERM}, {"SIGINT", syscall.SIGINT}} {
		t.Run(tc.name, func(t *testing.T) {
			if tc.sig == syscall.SIGINT && signal.Ignored(syscall.SIGINT) {
				t.Skip("this process was started with SIGINT ignored, and the server would inherit that")
			}
			addr, wal := freeAddr(t), filepath.Join(t.TempDir(), "node.wal")
			items := []int{3, 9, 27}
			s := startServer(t, addr, wal)
			seed := map[int]int{}
			for _, item := range items {
				seed[item] = s.bids(t, item)
			}

			const rounds = 12
			var users []int
			acked := map[int]int{}
			for i := 0; i < rounds; i++ {
				users = append(users, s.number(t, "RegisterNewUser", "registered user "))
				item := items[i%len(items)]
				s.must(t, fmt.Sprintf("MakeBid?item=%d", item), "bid form")
				s.must(t, fmt.Sprintf("CommitBid?amount=%d", 100+i), fmt.Sprintf("bid committed on item %d", item))
				acked[item]++
			}

			if err := s.cmd.Process.Signal(tc.sig); err != nil {
				t.Fatal(err)
			}
			err := s.cmd.Wait()
			ws, _ := s.cmd.ProcessState.Sys().(syscall.WaitStatus)
			if !ws.Signaled() || ws.Signal() != tc.sig {
				t.Fatalf("after %v the server ended with %v, want death by that signal:\n%s", tc.sig, err, s.log.String())
			}

			s = startServer(t, addr, wal)
			for _, id := range users {
				s.must(t, fmt.Sprintf("ViewUserInfo?user=%d", id), fmt.Sprintf("user %d (user%d)", id, id))
			}
			for _, item := range items {
				if got, want := s.bids(t, item), seed[item]+acked[item]; got != want {
					t.Errorf("item %d shows %d bids after the restart, want %d (%d seeded + %d acknowledged)",
						item, got, want, seed[item], acked[item])
				}
			}
			// The user id sequence came back too: the next user is the one
			// after the last acknowledged, so none was lost or made twice.
			if next := s.number(t, "RegisterNewUser", "registered user "); next != users[len(users)-1]+1 {
				t.Errorf("the first user after the restart is %d, want %d", next, users[len(users)-1]+1)
			}
		})
	}
}
