package main

// The two load shapes the service workloads put on a daemon. Both use two
// connections, and split events between them by client id so each
// client's events stay in order.
//
//   - saturation: each connection keeps a fixed window of requests in
//     flight, as fast as the daemon answers; it gives ops_per_s.
//   - closed loop: each connection waits for a reply before it sends the
//     next request, like a synchronous caller; it gives p50_us and p99_us.
//
// An open loop (requests sent on a schedule) is only a diagnostic here:
// on a small box the sleep that paces it overshoots by about a
// millisecond, so its latencies mostly measure the timer (see NOTES.md).

import (
	"sync"
	"time"

	"nvramfs/internal/daemon"
	"nvramfs/internal/trace"
)

const (
	loadConns = 2
	// loadWindow is the saturation phase's requests in flight per
	// connection.
	loadWindow = 16
)

// loadResult is what one phase observed from the client side.
type loadResult struct {
	sent    int64 // requests put on the wire
	status  [5]int64
	errs    int64 // requests or connections lost to a transport error or timeout
	elapsed time.Duration
	lat     []int64 // round trips in ns (closed loop, and open loop)
	lateNS  int64   // open loop: how far behind its schedule the sender fell
}

// attempted counts requests that got a verdict or were lost.
func (r *loadResult) attempted() int64 {
	n := r.errs
	for _, c := range r.status {
		n += c
	}
	return n
}

// failed counts requests that did not succeed: shed, bad, draining, or
// lost on the wire. A parked write succeeded: its bytes are durable.
func (r *loadResult) failed() int64 {
	return r.status[daemon.StatusShedOverload] + r.status[daemon.StatusDraining] +
		r.status[daemon.StatusBadRequest] + r.errs
}

// add folds one connection's result into r.
func (r *loadResult) add(o *loadResult) {
	r.sent += o.sent
	for i := range r.status {
		r.status[i] += o.status[i]
	}
	r.errs += o.errs
	r.lat = append(r.lat, o.lat...)
	if o.lateNS > r.lateNS {
		r.lateNS = o.lateNS
	}
}

func (r *loadResult) record(st daemon.Status) {
	if int(st) < len(r.status) {
		r.status[st]++
	} else {
		r.errs++
	}
}

// partition splits events across n connections by client id.
func partition(events []trace.Event, n int) [][]trace.Event {
	parts := make([][]trace.Event, n)
	for _, e := range events {
		i := int(e.Client) % n
		parts[i] = append(parts[i], e)
	}
	return parts
}

// connLoad runs one connection's share of a phase, sending nothing new
// once the deadline has passed, and reports into r.
type connLoad func(c *wireConn, part []trace.Event, deadline time.Time, r *loadResult)

// runLoad drives one phase over loadConns connections to addr until the
// events run out or the deadline passes.
func runLoad(addr string, events []trace.Event, deadline time.Time, conn connLoad) loadResult {
	parts := partition(events, loadConns)
	results := make([]loadResult, len(parts))
	var wg sync.WaitGroup
	start := time.Now()
	for i := range parts {
		wg.Add(1)
		go func(part []trace.Event, r *loadResult) {
			defer wg.Done()
			c, err := dialWire(addr)
			if err != nil {
				r.errs++
				return
			}
			defer c.Close()
			conn(c, part, deadline, r)
		}(parts[i], &results[i])
	}
	wg.Wait()
	total := loadResult{elapsed: time.Since(start)}
	for i := range results {
		total.add(&results[i])
	}
	return total
}

// saturate keeps loadWindow requests in flight on c. A transport error
// ends the connection; its unanswered requests count as failed.
func saturate(c *wireConn, part []trace.Event, deadline time.Time, r *loadResult) {
	next := 0
	for next < len(part) || c.outstanding() > 0 {
		if next < len(part) && time.Now().After(deadline) {
			part = part[:next]
		}
		for next < len(part) && c.outstanding() < loadWindow {
			if err := c.send(next, part[next]); err != nil {
				r.errs += int64(c.outstanding() + 1)
				return
			}
			next++
			r.sent++
		}
		if err := c.flush(); err != nil {
			r.errs += int64(c.outstanding())
			return
		}
		// Take every reply already here before refilling the window.
		for {
			_, st, err := c.recv()
			if err != nil {
				r.errs += int64(c.outstanding())
				return
			}
			r.record(st)
			if c.outstanding() == 0 || c.r.Buffered() < 6 {
				break
			}
		}
	}
}

// closedLoop sends part one request at a time, timing each round trip;
// observe, when set, also sees each round trip's start and end.
func closedLoop(observe func(t0, t1 time.Time)) connLoad {
	return func(c *wireConn, part []trace.Event, deadline time.Time, r *loadResult) {
		r.lat = make([]int64, 0, len(part))
		for i, e := range part {
			t0 := time.Now()
			if t0.After(deadline) {
				return
			}
			st, err := c.roundTrip(i, e)
			if err != nil {
				r.errs++
				return
			}
			t1 := time.Now()
			if observe != nil {
				observe(t0, t1)
			}
			r.lat = append(r.lat, int64(t1.Sub(t0)))
			r.sent++
			r.record(st)
		}
	}
}

// openLoop sends part on a fixed schedule of one request per interval,
// timing each request from when it was due, so a stall charges every
// request queued behind it. It is a diagnostic of the pacing timer.
func openLoop(interval time.Duration) connLoad {
	return func(c *wireConn, part []trace.Event, deadline time.Time, r *loadResult) {
		r.lat = make([]int64, 0, len(part))
		start := time.Now()
		for i, e := range part {
			due := start.Add(time.Duration(i) * interval)
			if due.After(deadline) {
				return
			}
			if d := time.Until(due); d > 0 {
				time.Sleep(d)
			} else if late := int64(-d); late > r.lateNS {
				r.lateNS = late
			}
			st, err := c.roundTrip(i, e)
			if err != nil {
				r.errs++
				return
			}
			r.lat = append(r.lat, int64(time.Since(due)))
			r.sent++
			r.record(st)
		}
	}
}

// roundTrip sends one request and waits for its reply.
func (c *wireConn) roundTrip(id int, e trace.Event) (daemon.Status, error) {
	if err := c.send(id, e); err != nil {
		return 0, err
	}
	if err := c.flush(); err != nil {
		return 0, err
	}
	_, st, err := c.recv()
	return st, err
}
