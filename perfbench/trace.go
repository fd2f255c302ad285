package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"drimann/internal/dataset"
	"drimann/internal/durable"
	"drimann/internal/engine"
)

// span is one timed call across a layer boundary, recorded from the
// benchmark's side of the call. Spans of one request share Req; spans that
// serve no single request (an engine launch, an fsync) have Req 0.
type span struct {
	ID     int64   `json:"id"`
	Parent int64   `json:"parent"`
	Req    int64   `json:"req"`
	Name   string  `json:"name"`
	Start  float64 `json:"start_s"` // seconds since the tracer started
	End    float64 `json:"end_s"`
	N      int     `json:"n,omitempty"` // queries in a launch
}

func (s span) dur() float64 { return s.End - s.Start }

// tracer keeps spans in memory; they are written out once the run ends so
// that recording costs a lock and an append, never I/O.
type tracer struct {
	t0    time.Time
	ids   atomic.Int64
	mu    sync.Mutex
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

// newID reserves a span id, so a parent's id can be handed to its
// children before the parent ends.
func (t *tracer) newID() int64 { return t.ids.Add(1) }

func (t *tracer) add(id, parent, req int64, name string, start, end time.Time, n int) {
	s := span{ID: id, Parent: parent, Req: req, Name: name,
		Start: start.Sub(t.t0).Seconds(), End: end.Sub(t.t0).Seconds(), N: n}
	t.mu.Lock()
	t.spans = append(t.spans, s)
	t.mu.Unlock()
}

// durations returns the durations (seconds) of the spans named name that
// started at or after since, sorted ascending.
func (t *tracer) durations(name string, since time.Time) []float64 {
	from := since.Sub(t.t0).Seconds()
	t.mu.Lock()
	defer t.mu.Unlock()
	var out []float64
	for _, s := range t.spans {
		if s.Name == name && s.Start >= from {
			out = append(out, s.dur())
		}
	}
	sort.Float64s(out)
	return out
}

// write stores the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	t.mu.Lock()
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			t.mu.Unlock()
			f.Close()
			return err
		}
	}
	t.mu.Unlock()
	if err := w.Flush(); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

// timedEngine times every launch of the engine it wraps.
type timedEngine struct {
	inner engine.Engine
	tr    *tracer
	name  string
}

func (e *timedEngine) SearchBatch(q dataset.U8Set) (*engine.Result, error) {
	start := time.Now()
	r, err := e.inner.SearchBatch(q)
	e.tr.add(e.tr.newID(), 0, 0, e.name, start, time.Now(), q.N)
	return r, err
}

func (e *timedEngine) K() int        { return e.inner.K() }
func (e *timedEngine) Dim() int      { return e.inner.Dim() }
func (e *timedEngine) MaxBatch() int { return e.inner.MaxBatch() }

// timedProbed adds the timed probed-search capability.
type timedProbed struct {
	*timedEngine
	probed engine.ProbedSearcher
}

func (e timedProbed) SearchBatchProbed(q dataset.U8Set, probes engine.ProbeSet, chargeCL bool) (*engine.Result, error) {
	start := time.Now()
	r, err := e.probed.SearchBatchProbed(q, probes, chargeCL)
	e.tr.add(e.tr.newID(), 0, 0, e.name, start, time.Now(), q.N)
	return r, err
}

func (e timedProbed) NumClusters() int { return e.probed.NumClusters() }

// The wrapper's method set must equal the wrapped engine's: serve and
// cluster discover capabilities by type assertion, so a dropped one would
// silently send them down another path. Go cannot add methods at run time,
// so each capability set a backend in this repository has gets its own
// type; any other set is refused rather than forwarded partially.
type (
	// timedIVF carries the IVF engine's set: every optional capability.
	timedIVF struct {
		timedProbed
		engine.Mutable
		engine.Snapshotter
		engine.Replicable
		engine.MemoryReporter
	}
	// timedReplicable carries the graph engine's set.
	timedReplicable struct {
		*timedEngine
		engine.Replicable
		engine.MemoryReporter
	}
)

// capabilities lists the optional engine capabilities e implements.
func capabilities(e engine.Engine) []string {
	var out []string
	if _, ok := e.(engine.ProbedSearcher); ok {
		out = append(out, "ProbedSearcher")
	}
	if _, ok := e.(engine.Mutable); ok {
		out = append(out, "Mutable")
	}
	if _, ok := e.(engine.Snapshotter); ok {
		out = append(out, "Snapshotter")
	}
	if _, ok := e.(engine.Replicable); ok {
		out = append(out, "Replicable")
	}
	if _, ok := e.(engine.MemoryReporter); ok {
		out = append(out, "MemoryReporter")
	}
	return out
}

// wrapEngine returns e with every launch timed as a span called name,
// forwarding exactly e's capabilities.
func wrapEngine(e engine.Engine, tr *tracer, name string) (engine.Engine, error) {
	base := &timedEngine{inner: e, tr: tr, name: name}
	switch caps := strings.Join(capabilities(e), ","); caps {
	case "":
		return base, nil
	case "Replicable,MemoryReporter":
		return timedReplicable{base, e.(engine.Replicable), e.(engine.MemoryReporter)}, nil
	case "ProbedSearcher,Mutable,Snapshotter,Replicable,MemoryReporter":
		return timedIVF{timedProbed{base, e.(engine.ProbedSearcher)},
			e.(engine.Mutable), e.(engine.Snapshotter), e.(engine.Replicable), e.(engine.MemoryReporter)}, nil
	default:
		return nil, fmt.Errorf("no timing wrapper forwards the capability set {%s} of %T", caps, e)
	}
}

// countingFS wraps a durable.FS and counts what the durability layer asks
// of it: fsyncs (each timed as a span) and bytes appended to WAL files.
type countingFS struct {
	durable.FS
	tr       *tracer
	syncs    atomic.Int64
	walBytes atomic.Int64
}

type countingFile struct {
	durable.File
	fs  *countingFS
	wal bool
}

func (fs *countingFS) wrap(f durable.File, name string, err error) (durable.File, error) {
	if err != nil {
		return nil, err
	}
	return &countingFile{File: f, fs: fs, wal: strings.HasPrefix(filepath.Base(name), "wal-")}, nil
}

func (fs *countingFS) Create(name string) (durable.File, error) {
	f, err := fs.FS.Create(name)
	return fs.wrap(f, name, err)
}

func (fs *countingFS) OpenAppend(name string) (durable.File, error) {
	f, err := fs.FS.OpenAppend(name)
	return fs.wrap(f, name, err)
}

func (f *countingFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	if f.wal {
		f.fs.walBytes.Add(int64(n))
	}
	return n, err
}

func (f *countingFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	f.fs.syncs.Add(1)
	f.fs.tr.add(f.fs.tr.newID(), 0, 0, "durable.Sync", start, time.Now(), 0)
	return err
}
