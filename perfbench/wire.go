package main

// A pipelining client for nvramd's wire protocol. daemon.Client keeps one
// request in flight; the saturation phase needs a window of them, so the
// benchmark speaks the protocol itself: a big-endian u32 length, then the
// payload, whose first byte is the frame type. Event payloads are
// trace.AppendEvent encodings. The daemon answers each connection's frames
// in order, so a reply belongs to the oldest request still unanswered.

import (
	"bufio"
	"encoding/binary"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"net"
	"time"

	"nvramfs/internal/daemon"
	"nvramfs/internal/trace"
)

// Frame types and the protocol version, as internal/daemon/proto.go
// defines them.
const (
	ftHello      = 1
	ftHelloOK    = 2
	ftEvent      = 3
	ftResult     = 4
	ftStatsReq   = 5
	ftStats      = 6
	protoVersion = 1
)

// wireTimeout bounds every blocking read or write; a daemon that stalls
// longer is counted as failed, not waited for.
const wireTimeout = 30 * time.Second

// errNoRequest is a reply that arrived with no request outstanding.
var errNoRequest = errors.New("perfbench: reply with no request outstanding")

// wireConn is one protocol connection with a FIFO of unanswered request ids.
type wireConn struct {
	conn net.Conn
	r    *bufio.Reader
	w    *bufio.Writer
	buf  []byte // last reply frame
	enc  []byte // next request frame
	fifo []int  // ids of unanswered requests, oldest at fifo[head]
	head int
}

// wrapConn buffers an established stream.
func wrapConn(conn net.Conn) *wireConn {
	return &wireConn{conn: conn, r: bufio.NewReaderSize(conn, 64<<10), w: bufio.NewWriterSize(conn, 64<<10)}
}

// newWireConn wraps an established stream and performs the handshake.
func newWireConn(conn net.Conn) (*wireConn, error) {
	c := wrapConn(conn)
	conn.SetDeadline(time.Now().Add(wireTimeout))
	if err := c.writeFrame([]byte{ftHello, protoVersion}); err != nil {
		return nil, err
	}
	if err := c.flush(); err != nil {
		return nil, err
	}
	p, err := c.readFrame()
	if err != nil {
		return nil, fmt.Errorf("perfbench: handshake: %w", err)
	}
	if len(p) < 2 || p[0] != ftHelloOK || p[1] != protoVersion {
		return nil, errors.New("perfbench: bad handshake reply")
	}
	return c, nil
}

// dialWire connects to addr and performs the handshake.
func dialWire(addr string) (*wireConn, error) {
	conn, err := net.DialTimeout("tcp", addr, wireTimeout)
	if err != nil {
		return nil, err
	}
	c, err := newWireConn(conn)
	if err != nil {
		conn.Close()
		return nil, err
	}
	return c, nil
}

func (c *wireConn) Close() error { return c.conn.Close() }

func (c *wireConn) writeFrame(payload []byte) error {
	var hdr [4]byte
	binary.BigEndian.PutUint32(hdr[:], uint32(len(payload)))
	if _, err := c.w.Write(hdr[:]); err != nil {
		return err
	}
	_, err := c.w.Write(payload)
	return err
}

func (c *wireConn) readFrame() ([]byte, error) {
	var hdr [4]byte
	if _, err := io.ReadFull(c.r, hdr[:]); err != nil {
		return nil, err
	}
	n := binary.BigEndian.Uint32(hdr[:])
	if n == 0 || n > daemon.MaxFrame {
		return nil, fmt.Errorf("perfbench: bad reply frame length %d", n)
	}
	if cap(c.buf) < int(n) {
		c.buf = make([]byte, n)
	}
	p := c.buf[:n]
	if _, err := io.ReadFull(c.r, p); err != nil {
		return nil, err
	}
	return p, nil
}

// send buffers one event request tagged id; flush puts it on the wire.
func (c *wireConn) send(id int, e trace.Event) error {
	c.enc = trace.AppendEvent(append(c.enc[:0], ftEvent), e)
	if err := c.writeFrame(c.enc); err != nil {
		return err
	}
	c.fifo = append(c.fifo, id)
	return nil
}

func (c *wireConn) flush() error {
	c.conn.SetDeadline(time.Now().Add(wireTimeout))
	return c.w.Flush()
}

// outstanding is the number of unanswered requests.
func (c *wireConn) outstanding() int { return len(c.fifo) - c.head }

// recv reads one reply and matches it to the oldest unanswered request.
func (c *wireConn) recv() (int, daemon.Status, error) {
	if c.outstanding() == 0 {
		return 0, 0, errNoRequest
	}
	p, err := c.readFrame()
	if err != nil {
		return 0, 0, err
	}
	if len(p) != 2 || p[0] != ftResult {
		return 0, 0, fmt.Errorf("perfbench: unexpected reply frame type %d", p[0])
	}
	id := c.fifo[c.head]
	c.head++
	if c.head*2 >= len(c.fifo) { // keep the queue's memory bounded by the window
		c.fifo = c.fifo[:copy(c.fifo, c.fifo[c.head:])]
		c.head = 0
	}
	return id, daemon.Status(p[1]), nil
}

// stats fetches the daemon's snapshot; no request may be outstanding.
func (c *wireConn) stats() (daemon.Snapshot, error) {
	if c.outstanding() != 0 {
		return daemon.Snapshot{}, errors.New("perfbench: stats request behind unanswered events")
	}
	if err := c.writeFrame([]byte{ftStatsReq}); err != nil {
		return daemon.Snapshot{}, err
	}
	if err := c.flush(); err != nil {
		return daemon.Snapshot{}, err
	}
	p, err := c.readFrame()
	if err != nil {
		return daemon.Snapshot{}, err
	}
	if len(p) < 1 || p[0] != ftStats {
		return daemon.Snapshot{}, fmt.Errorf("perfbench: unexpected stats frame type %d", p[0])
	}
	var snap daemon.Snapshot
	if err := json.Unmarshal(p[1:], &snap); err != nil {
		return daemon.Snapshot{}, fmt.Errorf("perfbench: decoding stats: %w", err)
	}
	return snap, nil
}
