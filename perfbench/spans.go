package main

// Spans recorded by the traced run. They are taken from the benchmark's
// own files, around its calls into each layer; spans inside the program
// are not part of this benchmark. They are kept in memory and written out
// when the run ends.

import (
	"bufio"
	"compress/gzip"
	"fmt"
	"os"
	"sync"
	"time"
)

// span is one timed interval. Parent is the index of the enclosing span
// (-1 for none); Req ties the spans of one request together (-1 for none).
type span struct {
	Name       string
	Start, End int64 // ns since the tracer started
	Parent     int
	Req        int64
}

// tracer records spans; it is safe for concurrent use.
type tracer struct {
	t0    time.Time
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// begin opens a span and returns its index.
func (t *tracer) begin(name string, parent int, req int64) int {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: now, End: -1, Parent: parent, Req: req})
	return len(t.spans) - 1
}

// end closes span i and returns its duration.
func (t *tracer) end(i int) time.Duration {
	now := int64(time.Since(t.t0))
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans[i].End = now
	return time.Duration(now - t.spans[i].Start)
}

// add records an already-measured span.
func (t *tracer) add(name string, parent int, req int64, start, end time.Time) {
	t.mu.Lock()
	defer t.mu.Unlock()
	t.spans = append(t.spans, span{Name: name, Start: int64(start.Sub(t.t0)), End: int64(end.Sub(t.t0)), Parent: parent, Req: req})
}

// timed runs fn inside a span and returns the span's duration.
func (t *tracer) timed(name string, parent int, fn func() error) (time.Duration, error) {
	i := t.begin(name, parent, -1)
	err := fn()
	return t.end(i), err
}

// sum adds up the durations of every span with the given name.
func (t *tracer) sum(name string) time.Duration {
	t.mu.Lock()
	defer t.mu.Unlock()
	var d int64
	for _, s := range t.spans {
		if s.Name == name {
			d += s.End - s.Start
		}
	}
	return time.Duration(d)
}

// write saves every span to path, gzip-compressed (a traced run records a
// span per request, a few hundred thousand in all), as tab-separated
// lines: index, name, start and end in ns, parent index, request id.
func (t *tracer) write(path string) error {
	t.mu.Lock()
	defer t.mu.Unlock()
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	zw := gzip.NewWriter(f)
	w := bufio.NewWriter(zw)
	fmt.Fprintln(w, "idx\tname\tstart_ns\tend_ns\tparent\treq")
	for i, s := range t.spans {
		fmt.Fprintf(w, "%d\t%s\t%d\t%d\t%d\t%d\n", i, s.Name, s.Start, s.End, s.Parent, s.Req)
	}
	err = w.Flush()
	if cerr := zw.Close(); err == nil {
		err = cerr
	}
	if cerr := f.Close(); err == nil {
		err = cerr
	}
	return err
}

// spanCost is what recording one span costs: opening and closing spans
// on a scratch tracer, the median over five rounds of 10,000. Recording
// an already-measured span (add) costs less, so this bounds it.
func spanCost() time.Duration {
	const n = 10_000
	rounds := make([]float64, 5)
	for r := range rounds {
		t := newTracer()
		t0 := time.Now()
		for i := 0; i < n; i++ {
			t.end(t.begin("cost", -1, int64(i)))
		}
		rounds[r] = float64(time.Since(t0)) / n
	}
	return time.Duration(median(rounds))
}
