package main

import (
	"errors"
	"io"
	"net"
	"testing"
	"time"
)

func newTestConn(c *clock, win *window, lagCap int) *memConn {
	return &memConn{
		req:    []byte("PLAY 10KB\n"),
		sink:   &sink{lags: make([]int32, 0, lagCap)},
		rate:   10e3 / 1e9,
		clock:  c,
		win:    win,
		closed: make(chan struct{}),
	}
}

// The server reads its request line once; a further read blocks until
// the connection closes and then reports net.ErrClosed.
func TestMemConnReadThenErrClosed(t *testing.T) {
	c := newTestConn(&clock{origin: time.Now()}, nil, 0)
	buf := make([]byte, 64)
	n, err := c.Read(buf)
	if err != nil || string(buf[:n]) != "PLAY 10KB\n" {
		t.Fatalf("first Read = %q, %v; want the request line", buf[:n], err)
	}
	got := make(chan error, 1)
	go func() {
		_, err := c.Read(buf)
		got <- err
	}()
	select {
	case err := <-got:
		t.Fatalf("second Read returned %v before Close", err)
	case <-time.After(20 * time.Millisecond):
	}
	if err := c.Close(); err != nil {
		t.Fatal(err)
	}
	if err := <-got; !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Read after Close = %v, want net.ErrClosed", err)
	}
	if _, err := c.Write([]byte("x")); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Write after Close = %v, want net.ErrClosed", err)
	}
	if err := c.Close(); err != nil {
		t.Fatalf("second Close = %v", err)
	}
}

// The first write is the response line; later writes are payload whose
// bytes land in the preallocated sink, with the lag of every lagEvery-th
// chunk.
func TestMemConnSinkRecordsPayload(t *testing.T) {
	clk := &clock{origin: time.Now()}
	c := newTestConn(clk, &window{from: 0, to: int64(time.Hour)}, 2)
	if _, err := io.WriteString(c, "OK streaming at 10.00KB/s\n"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 2*lagEvery+1; i++ {
		if _, err := c.Write(make([]byte, 200)); err != nil {
			t.Fatal(err)
		}
	}
	s := c.sink
	want := int64(200 * (2*lagEvery + 1))
	if s.busy || s.bytes != want || s.lastOff != want-200 || s.resp == 0 || s.first < s.resp || s.last < s.first {
		t.Fatalf("sink = %+v, want %d bytes after a non-BUSY response", *s, want)
	}
	if len(s.lags) != 2 || s.lagDrops != 1 {
		t.Fatalf("lags = %v, drops %d; want 2 kept and 1 dropped", s.lags, s.lagDrops)
	}

	busy := newTestConn(clk, nil, 0)
	io.WriteString(busy, "BUSY real-time capacity exhausted\n")
	if !busy.sink.busy {
		t.Fatal("BUSY response not recorded")
	}
}

func TestMemListener(t *testing.T) {
	clk := &clock{origin: time.Now()}
	ln := newMemListener(1, clk)
	c := newTestConn(clk, nil, 0)
	c.sink.traceable = true
	ln.push(c)
	got, err := ln.Accept()
	if err != nil || got != net.Conn(c) {
		t.Fatalf("Accept = %v, %v; want the pushed conn", got, err)
	}
	if c.sink.accepted == 0 {
		t.Error("traced session has no accept time")
	}
	ln.Close()
	ln.Close()
	if _, err := ln.Accept(); !errors.Is(err, net.ErrClosed) {
		t.Fatalf("Accept after Close = %v, want net.ErrClosed", err)
	}
}
