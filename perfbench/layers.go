package main

// The traced run. It times each layer from outside, one pass per layer,
// by calling the layer's public functions on the workload's own inputs,
// and reports the per-layer metrics. A layer's self time is its pass
// minus the pass of the layers it reads through (decode, canonicalize),
// so the costs roughly add up to the end-to-end numbers.

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"net"
	"os"
	"path/filepath"
	"sync/atomic"
	"time"

	"nvramfs"
	"nvramfs/internal/cache"
	"nvramfs/internal/daemon"
	"nvramfs/internal/faults"
	"nvramfs/internal/interval"
	"nvramfs/internal/lifetime"
	"nvramfs/internal/netmodel"
	"nvramfs/internal/nvram"
	"nvramfs/internal/prep"
	"nvramfs/internal/sim"
	"nvramfs/internal/trace"
	"nvramfs/internal/workload"
)

// layers collects per-layer metrics and whatever the traced run found
// wrong.
type layers struct {
	tr        *tracer
	m         map[string]metric
	detail    map[string]any // recorded in the result file only
	problems  []string
	attempted int64
	failed    int64
}

func newLayers() *layers {
	return &layers{tr: newTracer(), m: map[string]metric{}, detail: map[string]any{}}
}

func (l *layers) set(name string, v float64, unit string) { l.m[name] = metric{v, unit} }

func (l *layers) problem(format string, args ...any) {
	l.problems = append(l.problems, fmt.Sprintf(format, args...))
}

// simOrgs are the organizations the sim layer is timed on, at the paper's
// 8 MB volatile / 1 MB NVRAM point.
var simOrgs = []cache.ModelKind{cache.ModelVolatile, cache.ModelWriteAside, cache.ModelUnified, cache.ModelHybrid}

func drain[T any](next func() (T, bool, error)) (int64, error) {
	var n int64
	for {
		_, ok, err := next()
		if err != nil || !ok {
			return n, err
		}
		n++
	}
}

// pipelineLayers times the reproduction path's layers over each profile:
// generation, encoding, decoding, canonicalization, the lifetime passes
// and one simulation per organization.
func (l *layers) pipelineLayers(profiles []workload.Profile) error {
	var gen, enc, dec, canon, analyze, sched time.Duration
	simSelf := map[cache.ModelKind]time.Duration{}
	var events int64
	for _, p := range profiles {
		root := l.tr.begin("trace."+p.Name, -1, -1)
		var evs []trace.Event
		dGen, err := l.tr.timed("workload.gen", root, func() error {
			cur := workload.NewCursor(p)
			for {
				e, ok, err := cur.Next()
				if err != nil || !ok {
					return err
				}
				evs = append(evs, e)
			}
		})
		if err != nil {
			return err
		}
		n := int64(len(evs))
		events += n
		var buf bytes.Buffer
		dEnc, err := l.tr.timed("trace.encode", root, func() error {
			w, err := trace.NewWriter(&buf, p.Header())
			if err != nil {
				return err
			}
			for _, e := range evs {
				if err := w.Write(e); err != nil {
					return err
				}
			}
			return w.Close()
		})
		if err != nil {
			return err
		}
		evs = nil
		data := buf.Bytes()
		reader := func() (*trace.Reader, error) { return trace.NewBytesReader(data) }
		var decoded int64
		dDec, err := l.tr.timed("trace.decode", root, func() error {
			r, err := reader()
			if err != nil {
				return err
			}
			decoded, err = drain(r.Next)
			return err
		})
		if err != nil {
			return err
		}
		if decoded != n {
			l.problem("%s: decoded %d events of %d encoded", p.Name, decoded, n)
		}
		var st prep.Stats
		source := func() (prep.Source, error) {
			r, err := reader()
			if err != nil {
				return nil, err
			}
			return prep.NewSource(r, prep.Options{Trusted: true, FilesHint: st.Files}), nil
		}
		dCanon, err := l.tr.timed("prep.canon", root, func() error {
			r, err := reader()
			if err != nil {
				return err
			}
			c := prep.NewSource(r, prep.Options{Trusted: true})
			if _, err := drain(c.Next); err != nil {
				return err
			}
			st = c.Stats()
			return nil
		})
		if err != nil {
			return err
		}
		dAn, err := l.tr.timed("lifetime.analyze", root, func() error {
			src, err := source()
			if err != nil {
				return err
			}
			_, err = lifetime.AnalyzeWith(src, lifetime.Options{FilesHint: st.Files})
			return err
		})
		if err != nil {
			return err
		}
		dSch, err := l.tr.timed("lifetime.schedule", root, func() error {
			src, err := source()
			if err != nil {
				return err
			}
			_, err = lifetime.BuildSchedule(src, cache.DefaultBlockSize)
			return err
		})
		if err != nil {
			return err
		}
		for _, org := range simOrgs {
			d, err := l.tr.timed("sim.run."+org.String(), root, func() error {
				src, err := source()
				if err != nil {
					return err
				}
				_, err = sim.Run(src, sim.Config{Model: org, Cache: simCache(8<<20, 1<<20), FilesHint: st.Files})
				return err
			})
			if err != nil {
				return err
			}
			simSelf[org] += d - dCanon
		}
		l.tr.end(root)
		gen += dGen
		enc += dEnc
		dec += dDec
		canon += dCanon - dDec
		analyze += dAn - dCanon
		sched += dSch - dCanon
	}
	l.set("workload.gen_s", gen.Seconds(), "s")
	l.set("workload.events", float64(events), "count")
	l.set("trace.encode_s", enc.Seconds(), "s")
	l.set("trace.decode_s", dec.Seconds(), "s")
	l.set("trace.decode_ns_per_event", float64(dec.Nanoseconds())/float64(events), "ns")
	l.set("prep.canon_s", canon.Seconds(), "s")
	l.set("lifetime.analyze_s", analyze.Seconds(), "s")
	l.set("lifetime.schedule_s", sched.Seconds(), "s")
	for _, org := range simOrgs {
		l.set("sim.run_s."+org.String(), simSelf[org].Seconds(), "s")
	}
	return nil
}

// simCache is a cache configuration of the given volatile and NVRAM sizes.
func simCache(volatile, nv int64) cache.Config {
	return cache.Config{
		BlockSize:      cache.DefaultBlockSize,
		VolatileBlocks: int(volatile / cache.DefaultBlockSize),
		NVRAMBlocks:    int(nv / cache.DefaultBlockSize),
	}
}

// reportLayers renders the repro experiments once, timing each
// experiment and engine job, and checks the render against want, the
// recorded digest of nvreport's output at the same scale. Then it times
// the LFS layer on /user6 and checks its disk-write counts against the
// server study's.
func (l *layers) reportLayers(scale, days float64, want string) error {
	traced, err := reproOnce(context.Background(), scale, days, l.tr)
	if err != nil {
		return err
	}
	l.attempted += int64(len(reproExperiments))
	if traced.digest != want {
		l.problem("traced render digest %s, want %s", traced.digest, want)
	}
	for _, name := range reproExperiments {
		l.set(name+"_s", l.tr.sum(name).Seconds(), "s")
	}
	m := traced.eng
	l.set("engine.jobs", float64(m.JobsFinished), "count")
	l.set("engine.busy_s", m.Busy.Seconds(), "s")
	l.set("engine.utilization", m.Busy.Seconds()/(traced.render.Seconds()*reproWorkers), "ratio")
	l.set("engine.peak_concurrent", float64(m.PeakConcurrent), "count")

	var runS time.Duration
	var writes int64
	for i, buf := range []int64{0, 512 << 10} {
		var r *nvramfs.ServerResult
		d, err := l.tr.timed("lfs.run", -1, func() (err error) {
			r, err = nvramfs.RunServer("/user6", days24(days), buf)
			return err
		})
		if err != nil {
			return err
		}
		runS += d
		writes += r.DiskWrites
		row := traced.study.Rows[0]
		if want := []int64{row.DiskWrites, row.DiskWritesBuffer}[i]; row.Name != "/user6" || r.DiskWrites != want {
			l.problem("lfs: /user6 with %d B buffer made %d disk writes, the server study %d", buf, r.DiskWrites, want)
		}
	}
	l.set("lfs.run_s", runS.Seconds(), "s")
	l.set("lfs.disk_writes", float64(writes), "count")
	return nil
}

// probeDeliveries caps the deliveries the fault-stage passes replay: a
// durable park costs two msyncs, so the cap keeps park's pass short.
const probeDeliveries = 2000

// serviceLayers times the service path: a healthy in-process daemon over
// an image the benchmark owns, loaded closed-loop over TCP for up to
// limit, then an open-loop diagnostic; then the same events replayed
// through each layer's public functions for its self time.
func (l *layers) serviceLayers(events []trace.Event, dir string, limit time.Duration) error {
	// The wire is real, so the simulated network charge is off, as in nvramd.
	prof := faults.Profile{Net: &netmodel.Params{}}
	imgPath := filepath.Join(dir, "daemon.img")
	img, _, err := nvram.OpenImage(imgPath, nvram.ImageOptions{})
	if err != nil {
		return err
	}
	srv, _, err := daemon.New(daemon.Config{Org: cache.ModelUnified, Cache: simCache(1<<20, 1<<20), Faults: prof, Image: img})
	if err != nil {
		img.Close()
		return err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		srv.Shutdown(time.Second)
		img.Close()
		return err
	}
	served := make(chan error, 1)
	go func() { served <- srv.Serve(ln) }()
	addr := ln.Addr().String()

	root := l.tr.begin("daemon.closed_loop", -1, -1)
	var reqID atomic.Int64
	closed := runLoad(addr, events, time.Now().Add(limit), closedLoop(func(t0, t1 time.Time) {
		l.tr.add("daemon.request", root, reqID.Add(1), t0, t1)
	}))
	l.tr.end(root)
	// Open loop at a fixed 5k requests/s over both connections: well
	// below either daemon's capacity, so lateness is the timer's.
	const pacedInterval = 400 * time.Microsecond
	pacedEnd := time.Now().Add(2 * time.Second)
	paced := runLoad(addr, events, pacedEnd, openLoop(pacedInterval))

	sent := closed.sent + paced.sent
	l.attempted += closed.attempted() + paced.attempted()
	l.failed += closed.failed() + paced.failed()
	snap, qerr := quiesce(addr)
	srv.Shutdown(5 * time.Second)
	if err := <-served; err != nil && qerr == nil {
		qerr = err
	}
	if qerr != nil {
		img.Close()
		return qerr
	}
	final := srv.Snapshot()
	if !checkConservation(snap, sent, func(f string, a ...any) { l.problem(f, a...) }) {
		l.problem("in-process daemon broke conservation")
	}
	puts := img.Stats().Puts
	if err := img.Close(); err != nil {
		return err
	}
	parked, err := recoveredParkedBytes(imgPath)
	if err != nil {
		return err
	}
	if parked != final.PendingStable {
		l.problem("image holds %d parked bytes after shutdown, daemon reported %d", parked, final.PendingStable)
	}
	if puts != 0 {
		l.problem("healthy daemon put %d records in the image, want 0", puts)
	}

	p50 := float64(nearestRank(closed.lat, 0.5)) / 1e3
	l.set("daemon.closed_loop_p50_us", p50, "us")
	l.set("daemon.closed_loop_p99_us", float64(nearestRank(closed.lat, 0.99))/1e3, "us")
	// The daemon's own apply quantiles are whole microseconds, and an
	// apply takes less than one here, so they are kept out of the metrics.
	l.detail["daemon.apply_p50_us"] = snap.ApplyP50US
	l.detail["daemon.apply_p99_us"] = snap.ApplyP99US
	l.set("daemon.applied_ops", float64(snap.AppliedOps), "count")
	l.set("daemon.parked", float64(snap.Parked), "count")
	l.set("daemon.shed", float64(snap.Shed), "count")
	f := snap.Faults
	l.set("faults.deliveries", float64(f.Deliveries), "count")
	l.set("faults.attempts", float64(f.Attempts), "count")
	l.set("faults.outage_tries", float64(f.OutageTries), "count")
	l.set("faults.committed_mb", float64(f.CommittedBytes)/(1<<20), "MiB")
	l.set("faults.pending_mb", float64(snap.PendingStable+snap.PendingVolatile)/(1<<20), "MiB")
	l.set("gen.paced_p50_us", float64(nearestRank(paced.lat, 0.5))/1e3, "us")
	l.set("gen.paced_p99_us", float64(nearestRank(paced.lat, 0.99))/1e3, "us")
	l.set("gen.late_ms", float64(paced.lateNS)/1e6, "ms")

	return l.replayLayers(events, prof, dir, p50)
}

func ratio(a, b float64) float64 {
	if b == 0 {
		return 0
	}
	return a / b
}

// replayLayers replays the events through the service path's layers one
// pass at a time: frame codec, push canonicalizer, cache apply, and the
// fault stage's Deliver and Park against a fresh image each. The park
// pass parks every write-back as if its server were unreachable, the
// path a daemon under a server outage takes.
func (l *layers) replayLayers(events []trace.Event, prof faults.Profile, dir string, closedP50 float64) error {
	n := float64(len(events))
	stamped := make([]trace.Event, len(events))
	for i, e := range events {
		e.Time = int64(i) + 1 // the daemon restamps with a strictly rising clock
		stamped[i] = e
	}

	var buf []byte
	dFrame, err := l.tr.timed("trace.frame", -1, func() error {
		for _, e := range stamped {
			buf = trace.AppendEvent(buf[:0], e)
			got, _, err := trace.DecodeEvent(buf)
			if err != nil {
				return err
			}
			if got != e {
				return errors.New("perfbench: frame codec did not round-trip an event")
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	ops := make([]prep.Op, 0, len(events))
	dPush, err := l.tr.timed("prep.push", -1, func() error {
		c := prep.NewPush(prep.Options{Trusted: true})
		for _, e := range stamped {
			op, ok, err := c.Push(e)
			if err != nil {
				return err
			}
			if ok {
				ops = append(ops, op)
			}
		}
		return nil
	})
	if err != nil {
		return err
	}

	// The cache hooks collect write-backs the way the daemon's do.
	var deliveries []faults.Delivery
	var step *sim.Stepper
	cfg := sim.Config{Model: cache.ModelUnified, Cache: simCache(1<<20, 1<<20)}
	cfg.Cache.Hooks = &cache.ServerHooks{
		Write: func(now int64, file uint64, r interval.Range, cause cache.Cause, stable bool) {
			deliveries = append(deliveries, faults.Delivery{
				Client: step.CurrentClient(), File: file, Start: r.Start, End: r.End, Cause: uint8(cause), Stable: stable,
			})
		},
	}
	step = sim.NewStepper(nil, cfg)
	dApply, err := l.tr.timed("sim.apply", -1, func() error {
		for _, op := range ops {
			if err := step.Apply(op); err != nil {
				return err
			}
		}
		return nil
	})
	if err != nil {
		return err
	}
	probe := deliveries
	if len(probe) > probeDeliveries {
		probe = probe[:probeDeliveries]
	}
	if len(probe) == 0 {
		return errors.New("perfbench: the replay produced no write-backs")
	}

	// Each fault pass gets a fresh injector and image. The park pass is
	// also the nvram layer's: every Park of a stable write-back is a
	// durable put, so its image is read back for the commit path's counts
	// and reopened for the recovery cost.
	fault := func(name, img string, call func(x *faults.Injector, now int64, d faults.Delivery)) (time.Duration, *faults.Injector, nvram.ImageStats, error) {
		im, _, err := nvram.OpenImage(filepath.Join(dir, img), nvram.ImageOptions{})
		if err != nil {
			return 0, nil, nvram.ImageStats{}, err
		}
		x := faults.NewInjector(prof, nil)
		x.AttachImage(im)
		d, _ := l.tr.timed(name, -1, func() error {
			for i, d := range probe {
				call(x, int64(i+1)*1000, d)
			}
			return nil
		})
		st := im.Stats()
		if err := im.Err(); err != nil {
			im.Close()
			return 0, nil, st, err
		}
		return d, x, st, im.Close()
	}
	dDeliver, _, _, err := fault("faults.deliver", "deliver.img", (*faults.Injector).Deliver)
	if err != nil {
		return err
	}
	dPark, parker, ist, err := fault("faults.park", "park.img", (*faults.Injector).Park)
	if err != nil {
		return err
	}
	var recovered int64
	dReopen, err := l.tr.timed("nvram.reopen", -1, func() (err error) {
		recovered, err = recoveredParkedBytes(filepath.Join(dir, "park.img"))
		return err
	})
	if err != nil {
		return err
	}
	stable, _ := parker.PendingBytes()
	checkParked(parker.Stats(), stable, recovered, l.problem)
	l.set("nvram.puts", float64(ist.Puts), "count")
	l.set("nvram.msyncs", float64(ist.Msyncs), "count")
	l.set("nvram.msyncs_per_put", ratio(float64(ist.Msyncs), float64(ist.Puts)), "ratio")
	l.set("nvram.msync_us", ratio(float64(ist.MsyncNanos)/1e3, float64(ist.Msyncs)), "us")
	l.set("nvram.appended_kb", float64(ist.AppendedBytes)/1024, "KiB")
	l.set("nvram.compactions", float64(ist.Compactions), "count")
	l.set("nvram.reopen_ms", float64(dReopen.Microseconds())/1e3, "ms")

	frameNS := float64(dFrame.Nanoseconds()) / n
	pushNS := float64(dPush.Nanoseconds()) / n
	applyNS := float64(dApply.Nanoseconds()) / float64(len(ops))
	deliverNS := float64(dDeliver.Nanoseconds()) / float64(len(probe))
	l.set("trace.frame_ns_per_event", frameNS, "ns")
	l.set("prep.push_ns_per_event", pushNS, "ns")
	l.set("sim.apply_ns_per_op", applyNS, "ns")
	l.set("faults.deliver_ns", deliverNS, "ns")
	l.set("faults.park_us", float64(dPark.Nanoseconds())/float64(len(probe))/1e3, "us")
	perEvent := frameNS + pushNS + applyNS*float64(len(ops))/n + deliverNS*float64(len(deliveries))/n
	l.set("daemon.rtt_residual_us", closedP50-perEvent/1e3, "us")
	return nil
}

// checkParked checks a parked backlog against the image it was parked
// in, once the image has been reopened: with the server unreachable
// nothing may have committed or been lost, something must have parked,
// and the parked bytes recovered from the image must equal the backlog
// the fault stage reported.
func checkParked(st faults.Stats, pendingStable, recovered int64, logf func(string, ...any)) bool {
	ok := true
	if st.CommittedBytes != 0 || st.LostBytes != 0 {
		logf("park: committed %d B and lost %d B while parking, want 0 and 0", st.CommittedBytes, st.LostBytes)
		ok = false
	}
	if pendingStable == 0 {
		logf("park: nothing parked")
		ok = false
	}
	if recovered != pendingStable {
		logf("park: reopened image holds %d parked bytes, the fault stage reported %d", recovered, pendingStable)
		ok = false
	}
	return ok
}

// recoveredParkedBytes opens an image and sums the parked backlog in it.
func recoveredParkedBytes(path string) (int64, error) {
	img, _, err := nvram.OpenImage(path, nvram.ImageOptions{})
	if err != nil {
		return 0, fmt.Errorf("perfbench: reopening %s: %w", path, err)
	}
	entries, err := faults.RecoverParked(img)
	cerr := img.Close()
	if err != nil {
		return 0, err
	}
	if cerr != nil {
		return 0, cerr
	}
	var n int64
	for _, e := range entries {
		if !e.D.Stable {
			return 0, errors.New("perfbench: image holds a volatile parked delivery")
		}
		n += e.D.End - e.D.Start
	}
	return n, nil
}

// finish writes the spans out and returns the traced run's result.
// Recording the spans is all the tracing the run adds, so its overhead is
// the spans recorded times what recording one costs, as a share of the
// run's wall time.
func (l *layers) finish(opt options) (*result, map[string]any, error) {
	wall := time.Since(l.tr.t0)
	cost := spanCost()
	l.set("trace.overhead_frac", float64(len(l.tr.spans))*float64(cost)/float64(wall), "ratio")
	l.set("failed_frac", ratio(float64(l.failed), float64(l.attempted)), "ratio")
	for _, p := range l.problems {
		opt.log("%s", p)
	}
	if err := os.MkdirAll(opt.results, 0o755); err != nil {
		return nil, nil, err
	}
	path := filepath.Join(opt.results, fmt.Sprintf("spans-%s-seed%d-%s.tsv.gz", opt.workload, opt.seed, time.Now().UTC().Format("20060102T150405.000")))
	if err := l.tr.write(path); err != nil {
		return nil, nil, err
	}
	attempted := l.attempted
	if attempted == 0 {
		attempted = 1
	}
	l.detail["spans"] = path
	l.detail["spans_recorded"] = len(l.tr.spans)
	l.detail["span_cost_ns"] = cost.Nanoseconds()
	l.detail["traced_wall_s"] = wall.Seconds()
	l.detail["problems"] = l.problems
	return &result{Correct: len(l.problems) == 0, Attempted: attempted, Failed: l.failed, Metrics: l.m}, l.detail, nil
}

// reproTraced is repro's traced run: every client trace through the
// pipeline layers, the traced render and LFS at repro scale, and the
// service layers over trace 7's first events on a healthy daemon.
func reproTraced(opt options) (*result, map[string]any, error) {
	l := newLayers()
	if err := l.reportLayers(reproScale, reproServerDays, reproDigest); err != nil {
		return nil, nil, err
	}
	if err := l.pipelineLayers(workload.StandardProfiles(reproScale)); err != nil {
		return nil, nil, err
	}
	events, err := genEvents(workload.StandardProfile(7, reproScale).Seed, serviceEvents)
	if err != nil {
		return nil, nil, err
	}
	if err := l.serviceLayers(events, opt.work, opt.seconds/4); err != nil {
		return nil, nil, err
	}
	return l.finish(opt)
}

// serviceTraced is serve's traced run: the service layers over the
// seeded stream, the pipeline layers over the same trace, and the report
// layers at a small scale so that every layer is timed on every workload.
func serviceTraced(opt options) (*result, map[string]any, error) {
	l := newLayers()
	events, err := genEvents(opt.seed, serviceEvents)
	if err != nil {
		return nil, nil, err
	}
	if err := l.serviceLayers(events, opt.work, opt.seconds/4); err != nil {
		return nil, nil, err
	}
	if err := l.pipelineLayers([]workload.Profile{serviceProfile(opt.seed)}); err != nil {
		return nil, nil, err
	}
	if err := l.reportLayers(probeScale, probeServerDays, probeDigest); err != nil {
		return nil, nil, err
	}
	return l.finish(opt)
}

// The report and LFS layers run at this size on serve, whose inputs are a
// single service stream rather than the paper's trace set. probeDigest is
// the SHA-256 of the stdout of
//
//	nvreport -scale 0.05 -server-days 0.5 -exp fig2,table2,fig3,fig4,fig5,fig6,bus,table3,table4,buffer
const (
	probeScale      = 0.05
	probeServerDays = 0.5
	probeDigest     = "b0965d1a21dc8a6e07e5f79f3911008e02db74783e70b8daa02fb14ec408dfb4"
)
