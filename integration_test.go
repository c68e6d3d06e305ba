package snipe

// Standalone-deployment integration test: builds the cmd/ binaries and
// drives a small metacomputer of separate OS processes — two RC
// replicas, a host daemon, a resource manager — through the snipe CLI,
// exactly as the README's deployment section describes.

import (
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
	"time"
)

// freePort reserves a loopback port.
func freePort(t *testing.T) string {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	addr := ln.Addr().String()
	ln.Close()
	return addr
}

// buildBinaries compiles the commands under test into dir.
func buildBinaries(t *testing.T, dir string, names ...string) map[string]string {
	t.Helper()
	out := make(map[string]string, len(names))
	for _, name := range names {
		bin := filepath.Join(dir, name)
		cmd := exec.Command("go", "build", "-o", bin, "./cmd/"+name)
		cmd.Env = os.Environ()
		if b, err := cmd.CombinedOutput(); err != nil {
			t.Fatalf("building %s: %v\n%s", name, err, b)
		}
		out[name] = bin
	}
	return out
}

// startProc launches a long-running server binary and arranges its
// shutdown.
func startProc(t *testing.T, bin string, args ...string) *exec.Cmd {
	t.Helper()
	cmd := exec.Command(bin, args...)
	cmd.Stdout = os.Stderr
	cmd.Stderr = os.Stderr
	if err := cmd.Start(); err != nil {
		t.Fatalf("starting %s: %v", bin, err)
	}
	t.Cleanup(func() {
		cmd.Process.Signal(syscall.SIGINT)
		done := make(chan struct{})
		go func() {
			cmd.Wait()
			close(done)
		}()
		select {
		case <-done:
		case <-time.After(5 * time.Second):
			cmd.Process.Kill()
			<-done
		}
	})
	return cmd
}

// runCLI executes a one-shot CLI invocation.
func runCLI(t *testing.T, bin string, args ...string) (string, error) {
	t.Helper()
	cmd := exec.Command(bin, args...)
	out, err := cmd.CombinedOutput()
	return string(out), err
}

func TestStandaloneDeployment(t *testing.T) {
	if testing.Short() {
		t.Skip("builds and runs binaries; skipped in -short mode")
	}
	dir := t.TempDir()
	bins := buildBinaries(t, dir, "snipe-rcserver", "snipe-daemon", "snipe-rm",
		"snipe-fileserver", "snipe-console", "snipe")

	rc1, rc2 := freePort(t), freePort(t)
	rcList := rc1 + "," + rc2
	snap := filepath.Join(dir, "rc1.snap")

	startProc(t, bins["snipe-rcserver"], "-addr", rc1, "-origin", "rc1",
		"-peers", rc2, "-data", snap)
	startProc(t, bins["snipe-rcserver"], "-addr", rc2, "-origin", "rc2",
		"-peers", rc1)

	// Wait for the replicas to answer.
	waitFor(t, 10*time.Second, func() error {
		_, err := runCLI(t, bins["snipe"], "-rc", rcList, "meta", "set", "urn:it:probe", "up", "1")
		return err
	})

	startProc(t, bins["snipe-daemon"], "-host", "it1", "-rc", rcList)
	startProc(t, bins["snipe-rm"], "-name", "itrm", "-rc", rcList)

	// The host appears in the catalog.
	waitFor(t, 10*time.Second, func() error {
		out, err := runCLI(t, bins["snipe"], "-rc", rcList, "hosts")
		if err != nil {
			return err
		}
		if !strings.Contains(out, "snipe://hosts/it1") {
			return fmt.Errorf("host missing: %q", out)
		}
		return nil
	})

	// Spawn via the RM service; the daemon ships an echo program.
	var taskURN string
	waitFor(t, 15*time.Second, func() error {
		out, err := runCLI(t, bins["snipe"], "-rc", rcList, "spawn", "echo")
		if err != nil {
			return fmt.Errorf("%v: %s", err, out)
		}
		taskURN = strings.TrimSpace(out)
		return nil
	})
	if !strings.HasPrefix(taskURN, "urn:snipe:process:it1:echo-") {
		t.Fatalf("spawned URN: %q", taskURN)
	}

	// The daemon's status protocol sees it running.
	out, err := runCLI(t, bins["snipe"], "-rc", rcList, "status", "it1")
	if err != nil || !strings.Contains(out, taskURN) || !strings.Contains(out, "running") {
		t.Fatalf("status: %v %q", err, out)
	}

	// Kill it through the CLI and watch the state change in metadata.
	if out, err := runCLI(t, bins["snipe"], "-rc", rcList, "signal", taskURN, "kill"); err != nil {
		t.Fatalf("signal: %v %q", err, out)
	}
	waitFor(t, 10*time.Second, func() error {
		out, err := runCLI(t, bins["snipe"], "-rc", rcList, "meta", "get", taskURN, "state")
		if err != nil {
			return err
		}
		if !strings.Contains(out, "exited") {
			return fmt.Errorf("state: %q", out)
		}
		return nil
	})

	// Metadata written through one replica is readable at the other
	// (kill order is irrelevant; both are in the client's list).
	if out, err := runCLI(t, bins["snipe"], "-rc", rc2, "meta", "get", "urn:it:probe", "up"); err != nil || !strings.Contains(out, "1") {
		t.Fatalf("replicated read: %v %q", err, out)
	}

	// File server: store a file through the CLI and fetch it back.
	startProc(t, bins["snipe-fileserver"], "-name", "itfs", "-rc", rcList)
	var fsURN string
	waitFor(t, 10*time.Second, func() error {
		out, err := runCLI(t, bins["snipe"], "-rc", rcList, "meta", "get",
			"urn:snipe:service:fileserver", "location")
		if err != nil || !strings.Contains(out, "fileserver") {
			return fmt.Errorf("fileserver not registered: %v %q", err, out)
		}
		fsURN = strings.TrimSpace(strings.Split(out, "\n")[0])
		return nil
	})
	local := filepath.Join(dir, "payload.txt")
	if err := os.WriteFile(local, []byte("standalone file"), 0o644); err != nil {
		t.Fatal(err)
	}
	if out, err := runCLI(t, bins["snipe"], "-rc", rcList, "store", fsURN, "it.txt", local); err != nil {
		t.Fatalf("store: %v %q", err, out)
	}
	out, err = runCLI(t, bins["snipe"], "-rc", rcList, "fetch", "it.txt")
	if err != nil || out != "standalone file" {
		t.Fatalf("fetch: %v %q", err, out)
	}

	// Console: the HTTP gateway renders hosts and resolves URIs.
	conAddr := freePort(t)
	startProc(t, bins["snipe-console"], "-rc", rcList, "-http", conAddr)
	waitFor(t, 10*time.Second, func() error {
		resp, err := httpGet("http://" + conAddr + "/hosts")
		if err != nil {
			return err
		}
		if !strings.Contains(resp, "snipe://hosts/it1") {
			return fmt.Errorf("console hosts page: %q", resp)
		}
		return nil
	})
	resp, err := httpGet("http://" + conAddr + "/resolve?uri=" + taskURN)
	if err != nil || !strings.Contains(resp, "exited") {
		t.Fatalf("console resolve: %v %q", err, resp)
	}
}

// httpGet fetches a URL body as a string.
func httpGet(url string) (string, error) {
	resp, err := http.Get(url)
	if err != nil {
		return "", err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return "", err
	}
	if resp.StatusCode != 200 {
		return string(b), fmt.Errorf("status %d", resp.StatusCode)
	}
	return string(b), nil
}

func waitFor(t *testing.T, timeout time.Duration, f func() error) {
	t.Helper()
	deadline := time.Now().Add(timeout)
	var last error
	for time.Now().Before(deadline) {
		if last = f(); last == nil {
			return
		}
		time.Sleep(200 * time.Millisecond)
	}
	t.Fatalf("condition never met: %v", last)
}
