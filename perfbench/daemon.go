package main

import (
	"context"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"os/exec"
	"syscall"
	"time"
)

// daemon is one murakkabd child process listening on a loopback port.
// exited closes once the process has been waited for.
type daemon struct {
	cmd    *exec.Cmd
	base   string
	log    *os.File
	exited chan struct{}
}

// freePort asks the kernel for an unused loopback port.
func freePort() (int, error) {
	l, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return 0, err
	}
	defer l.Close()
	return l.Addr().(*net.TCPAddr).Port, nil
}

// startDaemon execs bin with args on a fresh loopback port. Its output goes
// to logPath; it is killed if this process dies first.
func startDaemon(bin string, args []string, logPath string) (*daemon, error) {
	port, err := freePort()
	if err != nil {
		return nil, err
	}
	addr := fmt.Sprintf("127.0.0.1:%d", port)
	log, err := os.Create(logPath)
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(bin, append([]string{"-addr", addr}, args...)...)
	cmd.Stdout, cmd.Stderr = log, log
	cmd.SysProcAttr = &syscall.SysProcAttr{Pdeathsig: syscall.SIGKILL}
	if err := cmd.Start(); err != nil {
		log.Close()
		return nil, err
	}
	d := &daemon{cmd: cmd, base: "http://" + addr, log: log, exited: make(chan struct{})}
	go func() {
		cmd.Wait()
		close(d.exited)
	}()
	return d, nil
}

func (d *daemon) pid() int { return d.cmd.Process.Pid }

// waitHealthy polls /healthz until it answers 200.
func (d *daemon) waitHealthy(c *http.Client, timeout time.Duration) error {
	end := time.Now().Add(timeout)
	for time.Now().Before(end) {
		ctx, cancel := context.WithTimeout(context.Background(), 200*time.Millisecond)
		req, _ := http.NewRequestWithContext(ctx, http.MethodGet, d.base+"/healthz", nil)
		resp, err := c.Do(req)
		if err == nil {
			io.Copy(io.Discard, resp.Body)
			resp.Body.Close()
		}
		cancel()
		if err == nil && resp.StatusCode == http.StatusOK {
			return nil
		}
		select {
		case <-d.exited:
			return fmt.Errorf("murakkabd exited during start-up (%v); see %s", d.cmd.ProcessState, d.log.Name())
		case <-time.After(time.Millisecond):
		}
	}
	return fmt.Errorf("murakkabd not healthy after %v", timeout)
}

// stop kills the daemon and waits for it. Nothing after the measured phase
// depends on a graceful drain, and a wedged shard would never finish one.
func (d *daemon) stop() {
	d.cmd.Process.Kill()
	<-d.exited
	d.log.Close()
}
