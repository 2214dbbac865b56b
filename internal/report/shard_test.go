package report

import (
	"bytes"
	"io"
	"testing"

	"nvramfs/internal/engine"
)

// renderShardSlice renders the drivers whose pipelines parallelize
// within a trace — the lifetime-backed Figure 2/Table 2 and the
// client-sharded broadcast rows of Figures 3/4, whose shard width
// follows the worker count — on an engine of the given size.
func renderShardSlice(t *testing.T, workers int) string {
	t.Helper()
	ws := NewWorkspace(0.02)
	ws.SetEngine(engine.New(workers))
	var buf bytes.Buffer
	renderAll := func(r interface{ Render(io.Writer) error }, err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		if err := r.Render(&buf); err != nil {
			t.Fatal(err)
		}
	}
	renderAll(Figure2(ws))
	renderAll(Table2(ws))
	renderAll(Figure3(ws))
	renderAll(Figure4(ws))
	return buf.String()
}

// TestReportShardInvariance is the sharding output contract at the
// report layer: the rendered figures are byte-identical at every worker
// count, and so at every client-shard width, including the 3 that leaves
// shards unevenly loaded.
func TestReportShardInvariance(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-point render sweep")
	}
	want := renderShardSlice(t, 1)
	for _, workers := range []int{2, 3, 8} {
		if got := renderShardSlice(t, workers); got != want {
			t.Errorf("-j %d: report output diverges from the -j 1 render", workers)
		}
	}
}

// TestShardWidthSelection pins the sizing rule: the Figure 3/4 client
// shard width is min(maxShardWidth, Workers()).
func TestShardWidthSelection(t *testing.T) {
	ws := NewWorkspace(0.02)
	for _, workers := range []int{1, 2, 3, 8, 9, 100} {
		ws.SetEngine(engine.New(workers))
		if got, want := ws.ShardWidth(), min(maxShardWidth, workers); got != want {
			t.Errorf("%d workers: width %d, want %d", workers, got, want)
		}
	}
}
