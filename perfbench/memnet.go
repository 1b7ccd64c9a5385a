package main

import (
	"net"
	"sync"
	"time"
)

// The serve workload feeds serve.Server from memory instead of sockets:
// thousands of loopback connections would need as many client threads to
// read them, which breaks the one-process, nproc-threads budget of the
// benchmark. The price is that the write syscall is not measured.

// memAddr is the address both ends of an in-memory connection report.
type memAddr struct{}

func (memAddr) Network() string { return "mem" }
func (memAddr) String() string  { return "perfbench" }

// memListener hands pre-built connections to the server's accept loop in
// the order the load generator pushes them.
type memListener struct {
	queue     chan *memConn
	done      chan struct{}
	closeOnce sync.Once
	clock     *clock
}

// newMemListener sizes the queue to the whole schedule so the generator
// never blocks on a slow accept loop: an open-loop arrival is pushed when
// it is due, and the wait shows up in that session's accept time.
func newMemListener(capacity int, c *clock) *memListener {
	return &memListener{queue: make(chan *memConn, capacity), done: make(chan struct{}), clock: c}
}

// push enqueues one arrival. It never blocks while the queue has room.
func (l *memListener) push(c *memConn) { l.queue <- c }

// Accept returns the next pushed connection, or net.ErrClosed once the
// listener is closed.
func (l *memListener) Accept() (net.Conn, error) {
	select {
	case <-l.done:
		return nil, net.ErrClosed
	default:
	}
	select {
	case c := <-l.queue:
		if c.sink.traceable {
			c.sink.accepted = l.clock.now()
		}
		return c, nil
	case <-l.done:
		return nil, net.ErrClosed
	}
}

// Close stops Accept. Safe to call more than once.
func (l *memListener) Close() error {
	l.closeOnce.Do(func() { close(l.done) })
	return nil
}

func (l *memListener) Addr() net.Addr { return memAddr{} }

// sink is one session's client-side record. It is allocated before the
// run starts and its lag storage is preallocated, so recording a chunk
// never allocates. All times are nanoseconds on the run clock.
type sink struct {
	due       int64 // when the generator was scheduled to open the session
	accepted  int64 // Accept returned it (traced sessions only)
	read      int64 // the server read the request line (traced sessions only)
	resp      int64 // the server wrote its response line
	first     int64 // first payload byte
	last      int64 // last payload byte
	lastOff   int64 // payload bytes sent before the last chunk
	closed    int64
	busy      bool  // the response line was BUSY
	bytes     int64 // payload bytes received
	chunks    int32
	lags      []int32 // lag of every lagEvery-th chunk in the window, µs
	lagDrops  int32   // sampled chunks whose lag did not fit in lags
	traceable bool    // the session ran with tracing on
}

// memConn is the server's end of one in-memory session. Read yields the
// request line once and then blocks until Close; Write records payload
// arrival into the sink and never blocks.
type memConn struct {
	req     []byte
	reqRead bool
	sink    *sink
	rate    float64 // payload bytes per nanosecond of the session's schedule
	clock   *clock
	win     *window
	closed  chan struct{}
	once    sync.Once
	onClose func()
	wrote   bool // the response line has been written
}

// lagEvery thins the lag samples a sink keeps to every lagEvery-th
// chunk, so the benchmark's own storage stays small beside the server's
// memory that rss_peak_mb measures. The quantiles are exact over the
// chunks kept: about a million in a 30 s window.
const lagEvery = 4

// window is the measured interval; lag samples are kept only for chunks
// delivered inside it.
type window struct{ from, to int64 }

func (w *window) contains(t int64) bool { return w != nil && t >= w.from && t < w.to }

func (c *memConn) Read(b []byte) (int, error) {
	if !c.reqRead {
		c.reqRead = true
		if c.sink.traceable {
			c.sink.read = c.clock.now()
		}
		return copy(b, c.req), nil
	}
	<-c.closed
	return 0, net.ErrClosed
}

func (c *memConn) Write(b []byte) (int, error) {
	select {
	case <-c.closed:
		return 0, net.ErrClosed
	default:
	}
	now := c.clock.now()
	s := c.sink
	if !c.wrote {
		c.wrote = true
		s.resp = now
		s.busy = len(b) >= 4 && string(b[:4]) == "BUSY"
		return len(b), nil
	}
	if s.bytes == 0 {
		s.first = now
	}
	if c.win.contains(now) && s.chunks%lagEvery == 0 {
		// The chunk's first byte is due when the stream's own schedule,
		// anchored at the response line, reaches it.
		due := s.resp + int64(float64(s.bytes)/c.rate)
		if len(s.lags) < cap(s.lags) {
			s.lags = append(s.lags, int32((now-due)/1000))
		} else {
			s.lagDrops++
		}
	}
	s.chunks++
	s.lastOff = s.bytes
	s.bytes += int64(len(b))
	s.last = now
	return len(b), nil
}

// Close records the close time once and releases a blocked Read.
func (c *memConn) Close() error {
	c.once.Do(func() {
		c.sink.closed = c.clock.now()
		close(c.closed)
		if c.onClose != nil {
			c.onClose()
		}
	})
	return nil
}

func (c *memConn) LocalAddr() net.Addr              { return memAddr{} }
func (c *memConn) RemoteAddr() net.Addr             { return memAddr{} }
func (c *memConn) SetDeadline(time.Time) error      { return nil }
func (c *memConn) SetReadDeadline(time.Time) error  { return nil }
func (c *memConn) SetWriteDeadline(time.Time) error { return nil }

// clock reads monotonic nanoseconds since the run's origin.
type clock struct{ origin time.Time }

func (c *clock) now() int64 { return int64(time.Since(c.origin)) }
