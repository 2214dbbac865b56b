package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"fmt"
	"net"
	"os/exec"
	"path/filepath"
	"strings"
	"testing"
	"time"

	"nvramfs"
	"nvramfs/internal/cache"
	"nvramfs/internal/daemon"
	"nvramfs/internal/faults"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
	"nvramfs/internal/trace"
)

func TestNearestRank(t *testing.T) {
	xs := make([]int64, 100)
	for i := range xs {
		xs[i] = int64(100 - i) // 100..1, unsorted
	}
	for _, c := range []struct {
		q    float64
		want int64
	}{{0.5, 50}, {0.99, 99}, {1, 100}, {0.001, 1}, {0, 1}} {
		if got := nearestRank(xs, c.q); got != c.want {
			t.Errorf("nearestRank(1..100, %g) = %d, want %d", c.q, got, c.want)
		}
	}
	if got := nearestRank(nil, 0.5); got != 0 {
		t.Errorf("nearestRank(empty) = %d, want 0", got)
	}
	if got := nearestRank([]int64{7}, 0.99); got != 7 {
		t.Errorf("nearestRank([7], 0.99) = %d, want 7", got)
	}
}

func TestTailPercentile(t *testing.T) {
	qs := []float64{0.5, 0.9, 0.95, 0.99, 0.999}
	for _, c := range []struct {
		n    int
		want float64
	}{
		{10000, 0.999}, // rank 9990: exactly 10 beyond
		{9999, 0.99},   // rank 9990 of 9999: 9 beyond p99.9
		{1000, 0.99},
		{999, 0.95},
		{100, 0.9},
		{20, 0.5},
		{19, 0}, // even the median has only 9 beyond
	} {
		if got := tailPercentile(c.n, qs...); got != c.want {
			t.Errorf("tailPercentile(%d) = %g, want %g", c.n, got, c.want)
		}
	}
}

// The benchmark's spreads are judged with Python's statistics.quantiles;
// these are its outputs for the same inputs.
func TestQuartilesMatchPython(t *testing.T) {
	for _, c := range []struct {
		xs     []float64
		q1, q3 float64
	}{
		{[]float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 2.75, 8.25},
		{[]float64{1, 2}, 0.75, 2.25},
		{[]float64{3, 1, 4, 1, 5, 9, 2, 6, 5, 3}, 1.75, 5.25},
		{[]float64{10, 12.5, 11}, 10, 12.5},
	} {
		q1, q3 := quartiles(c.xs)
		if q1 != c.q1 || q3 != c.q3 {
			t.Errorf("quartiles(%v) = %g, %g, want %g, %g", c.xs, q1, q3, c.q1, c.q3)
		}
	}
}

// fakeDaemon answers every event frame on conn with a status derived from
// the event itself (its client id mod 3), in arrival order, after the
// handshake. Replies are written in bursts to exercise the client's
// buffered reads.
func fakeDaemon(t *testing.T, conn net.Conn) {
	t.Helper()
	c := wrapConn(conn)
	if p, err := c.readFrame(); err != nil || p[0] != ftHello {
		t.Errorf("fake daemon: bad hello: %v", err)
		return
	}
	c.writeFrame([]byte{ftHelloOK, protoVersion})
	c.w.Flush()
	for n := 0; ; n++ {
		p, err := c.readFrame()
		if err != nil {
			return
		}
		e, _, err := trace.DecodeEvent(p[1:])
		if err != nil {
			t.Errorf("fake daemon: %v", err)
			return
		}
		c.writeFrame([]byte{ftResult, byte(e.Client % 3)})
		if n%5 == 4 || c.r.Buffered() == 0 {
			c.w.Flush()
		}
	}
}

func TestPipelinedRepliesMatchFIFO(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	served := make(chan struct{})
	go func() {
		defer close(served)
		conn, err := ln.Accept()
		if err != nil {
			t.Error(err)
			return
		}
		defer conn.Close()
		fakeDaemon(t, conn)
	}()
	c, err := dialWire(ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	if _, _, err := c.recv(); err != errNoRequest {
		t.Fatalf("recv with nothing outstanding: %v, want errNoRequest", err)
	}
	const n = 500
	events := make([]trace.Event, n)
	for i := range events {
		events[i] = trace.Event{Time: int64(i + 1), Op: trace.OpWrite, Client: uint32(i), File: 1, Length: 1}
	}
	next, got := 0, 0
	for got < n {
		for next < n && c.outstanding() < loadWindow {
			if err := c.send(next, events[next]); err != nil {
				t.Fatal(err)
			}
			next++
		}
		if err := c.flush(); err != nil {
			t.Fatal(err)
		}
		id, st, err := c.recv()
		if err != nil {
			t.Fatal(err)
		}
		if id != got || st != daemon.Status(id%3) {
			t.Fatalf("reply %d matched to request %d with status %d, want request %d status %d", got, id, st, got, got%3)
		}
		got++
	}
	if c.outstanding() != 0 || len(c.fifo) > 2*loadWindow {
		t.Errorf("after draining: %d outstanding, fifo length %d", c.outstanding(), len(c.fifo))
	}
	c.Close()
	<-served
}

func TestConservationCheck(t *testing.T) {
	ok := daemon.Snapshot{RequestsOK: 90, Parked: 6, Shed: 3, BadRequests: 1, AppliedOps: 90,
		PendingStable: 40, PendingVolatile: 10,
		Faults: faults.Stats{OfferedBytes: 100, CommittedBytes: 45, LostBytes: 5}}
	quiet := func(string, ...any) {}
	if !checkConservation(ok, 100, quiet) {
		t.Error("a balanced snapshot failed the check")
	}
	for name, mut := range map[string]func(*daemon.Snapshot){
		"verdicts":      func(s *daemon.Snapshot) { s.Shed++ },
		"applied":       func(s *daemon.Snapshot) { s.AppliedOps-- },
		"bytes offered": func(s *daemon.Snapshot) { s.Faults.OfferedBytes++ },
		"bytes pending": func(s *daemon.Snapshot) { s.PendingStable-- },
	} {
		s := ok
		mut(&s)
		if checkConservation(s, 100, quiet) {
			t.Errorf("%s: an unbalanced snapshot passed the check", name)
		}
	}
}

// A parked backlog passes the check only when its image, reopened,
// holds exactly the bytes the fault stage reported, and nothing committed
// or was lost.
func TestParkedCheck(t *testing.T) {
	path := filepath.Join(t.TempDir(), "park.img")
	img, _, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		t.Fatal(err)
	}
	x := faults.NewInjector(faults.Profile{Net: &netmodel.Params{}}, nil)
	x.AttachImage(img)
	for i := 0; i < 20; i++ {
		x.Park(int64(i+1)*1000, faults.Delivery{Client: 1, File: uint64(i % 3), Start: int64(i) * 4096, End: int64(i+1) * 4096, Stable: true})
	}
	stable, _ := x.PendingBytes()
	if err := img.Close(); err != nil {
		t.Fatal(err)
	}
	if stable != 20*4096 {
		t.Fatalf("parked %d bytes, want %d", stable, 20*4096)
	}
	recovered, err := recoveredParkedBytes(path)
	if err != nil {
		t.Fatal(err)
	}
	quiet := func(string, ...any) {}
	if !checkParked(x.Stats(), stable, recovered, quiet) {
		t.Fatalf("matching image failed the check: recovered %d of %d bytes", recovered, stable)
	}
	for name, c := range map[string]struct {
		mut                func(*faults.Stats)
		pending, recovered int64
	}{
		"backlog":   {func(*faults.Stats) {}, stable - 4096, recovered},
		"image":     {func(*faults.Stats) {}, stable, recovered + 4096},
		"nothing":   {func(*faults.Stats) {}, 0, 0},
		"committed": {func(s *faults.Stats) { s.CommittedBytes = 1 }, stable, recovered},
		"lost":      {func(s *faults.Stats) { s.LostBytes = 1 }, stable, recovered},
	} {
		st := x.Stats()
		c.mut(&st)
		if checkParked(st, c.pending, c.recovered, quiet) {
			t.Errorf("%s: a mismatched backlog passed the check", name)
		}
	}
}

// startInProcess serves a daemon with cfg on a loopback port.
func startInProcess(t *testing.T, cfg daemon.Config) (*daemon.Server, string) {
	t.Helper()
	srv, _, err := daemon.New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()
	t.Cleanup(func() {
		srv.Shutdown(5 * time.Second)
		if err := <-done; err != nil {
			t.Error(err)
		}
	})
	return srv, ln.Addr().String()
}

func TestSaturationKeepsDaemonBalanced(t *testing.T) {
	events, err := genEvents(1, 5000)
	if err != nil {
		t.Fatal(err)
	}
	_, addr := startInProcess(t, daemon.Config{Org: cache.ModelUnified, Cache: simCache(1<<20, 1<<20),
		Faults: faults.Profile{Net: &netmodel.Params{}}})
	r := runLoad(addr, events, time.Now().Add(time.Minute), saturate)
	if r.sent != int64(len(events)) || r.failed() != 0 || r.attempted() != r.sent {
		t.Fatalf("sent %d of %d, failed %d, attempted %d", r.sent, len(events), r.failed(), r.attempted())
	}
	snap, err := quiesce(addr)
	if err != nil {
		t.Fatal(err)
	}
	if !checkConservation(snap, r.sent, t.Logf) {
		t.Error("a quiesced daemon failed the conservation check")
	}
	if checkConservation(snap, r.sent+1, func(string, ...any) {}) {
		t.Error("a request the daemon never saw passed the conservation check")
	}
}

// renderInProcess renders the repro experiments at a small scale.
func renderInProcess(t *testing.T, scale, days float64) []byte {
	t.Helper()
	eng := nvramfs.NewEngine(reproWorkers)
	ws := nvramfs.NewWorkspace(scale)
	ws.SetEngine(eng)
	var out bytes.Buffer
	if _, err := renderRepro(context.Background(), ws, eng, &out, days,
		func(_ string, fn func() error) error { return fn() }); err != nil {
		t.Fatal(err)
	}
	return out.Bytes()
}

// The in-process render must be nvreport's stdout, byte for byte, at any
// worker count; this is what makes reproDigest a digest of nvreport.
func TestRenderMatchesNvreport(t *testing.T) {
	bin := filepath.Join(t.TempDir(), "nvreport")
	if out, err := exec.Command("go", "build", "-o", bin, "nvramfs/cmd/nvreport").CombinedOutput(); err != nil {
		t.Fatalf("building nvreport: %v\n%s", err, out)
	}
	var exps []string
	for name := range reproExperiments {
		exps = append(exps, name)
	}
	got := renderInProcess(t, probeScale, probeServerDays)
	if sum := sha256.Sum256(got); hex.EncodeToString(sum[:]) != probeDigest {
		t.Errorf("render at scale %g digest %x, want probeDigest %s", probeScale, sum, probeDigest)
	}
	for _, j := range []string{"1", "2"} {
		want, err := exec.Command(bin, "-scale", fmt.Sprint(probeScale), "-server-days", fmt.Sprint(probeServerDays), "-j", j,
			"-exp", strings.Join(exps, ",")).Output()
		if err != nil {
			t.Fatalf("nvreport -j %s: %v", j, err)
		}
		if !bytes.Equal(got, want) {
			t.Errorf("in-process render (%d bytes) differs from nvreport -j %s stdout (%d bytes)", len(got), j, len(want))
		}
	}
}

// The recorded digest is the full-scale render's; a render that drifts
// fails the run's correctness check.
func TestReproDigest(t *testing.T) {
	if testing.Short() {
		t.Skip("full repro render takes ~20s")
	}
	rep, err := reproOnce(context.Background(), reproScale, reproServerDays, nil)
	if err != nil {
		t.Fatal(err)
	}
	if rep.digest != reproDigest {
		t.Fatalf("repro render digest %s, want %s", rep.digest, reproDigest)
	}
	if probeDigest == reproDigest {
		t.Fatal("a different render matched the recorded digest")
	}
}

func TestJudge(t *testing.T) {
	base := []float64{100, 101, 99, 100, 102, 98, 100, 101, 99, 100}
	scaled := func(f float64, xs []float64) []float64 {
		out := make([]float64, len(xs))
		for i, x := range xs {
			out[i] = x * f
		}
		return out
	}
	noisy := []float64{60, 140, 100, 70, 130, 100, 65, 135, 100, 100}
	for _, c := range []struct {
		name          string
		parent, chg   []float64
		lower         bool
		bound         float64
		want          string
		wantWinsAtMin int
	}{
		{"faster", base, scaled(0.9, base), true, 0.1, "gain", 9},
		{"slower beyond bound", base, scaled(1.2, base), true, 0.1, "regression", 0},
		{"slower within bound", base, scaled(1.05, base), true, 0.1, "no change", 0},
		{"throughput up", base, scaled(1.1, base), false, 0.1, "gain", 9},
		{"spread above bound", noisy, noisy, true, 0.1, "unresolved (spread above bound)", 0},
		{"noisy but every run better", noisy, scaled(0.3, noisy), true, 0.1, "gain", 9},
		{"too few pairs", base[:9], scaled(0.5, base[:9]), true, 0.1, "unresolved (fewer than 10 pairs)", 0},
	} {
		v := judge(c.parent, c.chg, c.lower, c.bound)
		if v.Call != c.want || v.Wins < c.wantWinsAtMin {
			t.Errorf("%s: %s with %d/%d wins, want %s", c.name, v.Call, v.Wins, v.Pairs, c.want)
		}
	}
}
