package main

import (
	"bufio"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"os/exec"
	"sync"
)

// daemon is a running -serve child and the parent's end of its control
// pipe. Replies are matched to requests by id, because checkpoints answer
// late and out of order with stats.
type daemon struct {
	cmd   *exec.Cmd
	stdin io.WriteCloser
	addr  string

	mu      sync.Mutex
	nextID  int
	waiters map[int]chan reply
	dead    chan struct{} // closed when stdout ends
}

// startDaemon re-execs this binary as the daemon child on dir and waits
// for it to print its address.
func startDaemon(dir string) (*daemon, error) {
	self, err := os.Executable()
	if err != nil {
		return nil, err
	}
	cmd := exec.Command(self, "-serve", "-dir", dir)
	cmd.Env = append(os.Environ(), "GOMAXPROCS=1")
	cmd.Stderr = os.Stderr
	stdin, err := cmd.StdinPipe()
	if err != nil {
		return nil, err
	}
	stdout, err := cmd.StdoutPipe()
	if err != nil {
		return nil, err
	}
	d := &daemon{cmd: cmd, stdin: stdin,
		waiters: map[int]chan reply{}, dead: make(chan struct{})}
	if err := cmd.Start(); err != nil {
		return nil, err
	}
	ready := d.expect(0)
	go d.readLoop(stdout)
	select {
	case r := <-ready:
		d.addr = r.Addr
		return d, nil
	case <-d.dead:
		d.kill()
		return nil, errors.New("daemon exited before it was ready")
	}
}

func (d *daemon) readLoop(stdout io.Reader) {
	defer close(d.dead)
	sc := bufio.NewScanner(stdout)
	sc.Buffer(make([]byte, 1<<20), 1<<20)
	for sc.Scan() {
		var r reply
		if err := json.Unmarshal(sc.Bytes(), &r); err != nil {
			fmt.Fprintf(os.Stderr, "benchmark: bad line from daemon: %q\n", sc.Text())
			return
		}
		d.mu.Lock()
		ch := d.waiters[r.ID]
		delete(d.waiters, r.ID)
		d.mu.Unlock()
		if ch != nil {
			ch <- r
		}
	}
}

// expect registers a waiter for the reply with this id.
func (d *daemon) expect(id int) chan reply {
	ch := make(chan reply, 1)
	d.mu.Lock()
	d.waiters[id] = ch
	d.mu.Unlock()
	return ch
}

// request writes one control line and returns the channel its reply will
// arrive on.
func (d *daemon) request(verb string) (chan reply, error) {
	d.mu.Lock()
	d.nextID++
	id := d.nextID
	d.mu.Unlock()
	ch := d.expect(id)
	if _, err := fmt.Fprintf(d.stdin, "%s %d\n", verb, id); err != nil {
		return nil, fmt.Errorf("daemon control: %w", err)
	}
	return ch, nil
}

func (d *daemon) await(ch chan reply) (reply, error) {
	select {
	case r := <-ch:
		return r, nil
	case <-d.dead:
		return reply{}, errors.New("daemon died")
	}
}

// checkpoint asks for a checkpoint and returns at once; await the channel
// to know it finished.
func (d *daemon) checkpoint() (chan reply, error) { return d.request("checkpoint") }

// checkpointWait runs one checkpoint to completion.
func (d *daemon) checkpointWait() error {
	ch, err := d.checkpoint()
	if err != nil {
		return err
	}
	_, err = d.await(ch)
	return err
}

func (d *daemon) stats() (*childStats, error) {
	ch, err := d.request("stats")
	if err != nil {
		return nil, err
	}
	r, err := d.await(ch)
	if err != nil {
		return nil, err
	}
	return r.Stats, nil
}

// kill is SIGKILL — the crash the recovery machinery exists for — and
// waits until the process is gone, so the backing file's lock is free.
func (d *daemon) kill() {
	d.cmd.Process.Kill() //nolint:errcheck // already dead is fine
	d.stdin.Close()
	<-d.dead
	d.cmd.Wait() //nolint:errcheck // killed: the error is the signal
}
