package main

import (
	"context"
	"math"
	"sort"
	"sync"
	"time"
)

type opKind int

const (
	opRead      opKind = iota // i is the query index
	opWrite                   // i is the write's sequence number in the phase
	opTempWrite               // a write the phase undoes again
)

// op is one scheduled request.
type op struct {
	kind opKind
	i    int
}

// sample is one scheduled request's outcome, in seconds from the phase
// start.
type sample struct {
	due, sent, done float64
	write, ok       bool
}

// latency is the time from when the request was due to be sent to its
// answer, so a generator stall or a queue in front of it counts against the
// system. A failed or refused request reads +Inf: it misses every limit.
func (s sample) latency() float64 {
	if !s.ok {
		return math.Inf(1)
	}
	return s.done - s.due
}

// late is how far behind schedule the generator issued the request.
func (s sample) late() float64 { return s.sent - s.due }

// openLoop issues ops at a fixed rate from one generator goroutine. Each
// request runs on its own goroutine, so a slow answer never delays the
// schedule (independent users, not waiting callers); openLoop returns once
// every request has finished.
func openLoop(ctx context.Context, rate float64, ops []op, issue func(ctx context.Context, o op) error) []sample {
	out := make([]sample, len(ops))
	var wg sync.WaitGroup
	start := time.Now()
	for i, o := range ops {
		due := float64(i) / rate
		if d := time.Duration(due*1e9) - time.Since(start); d > 0 {
			time.Sleep(d)
		}
		sent := time.Since(start).Seconds()
		wg.Add(1)
		go func(i int, o op) {
			defer wg.Done()
			err := issue(ctx, o)
			out[i] = sample{due: due, sent: sent, done: time.Since(start).Seconds(), write: o.kind != opRead, ok: err == nil}
		}(i, o)
	}
	wg.Wait()
	return out
}

// phaseStats summarises one open-loop phase. Windows are fixed sub-windows
// of the schedule (by due time); the first warm of them are excluded as
// warm-up, and each wall metric is the median over the rest.
type phaseStats struct {
	p50, p90, p99    float64 // read latency, seconds: median over windows
	writeP50         float64 // write latency, seconds, over the steady windows
	sent, ok, failed [2]int  // [reads, writes], whole phase
	lateP50          float64 // generator lateness, seconds
	windows          int
}

func summarize(samples []sample, width float64, warm int) phaseStats {
	var st phaseStats
	if len(samples) == 0 {
		return st
	}
	var lates, writes []float64
	byWin := map[int][]float64{}
	for _, s := range samples {
		k := 0
		if s.write {
			k = 1
		}
		st.sent[k]++
		if s.ok {
			st.ok[k]++
		} else {
			st.failed[k]++
		}
		lates = append(lates, s.late())
		w := int(s.due / width)
		if w < warm {
			continue
		}
		if s.write {
			writes = append(writes, s.latency())
		} else {
			byWin[w] = append(byWin[w], s.latency())
		}
	}
	var p50s, p90s, p99s []float64
	for _, lat := range byWin {
		sort.Float64s(lat)
		p50s = append(p50s, percentile(lat, 0.50))
		p90s = append(p90s, percentile(lat, 0.90))
		p99s = append(p99s, percentile(lat, 0.99))
	}
	st.windows = len(byWin)
	st.p50, st.p90, st.p99 = median(p50s), median(p90s), median(p99s)
	sort.Float64s(writes)
	st.writeP50 = percentile(writes, 0.50)
	sort.Float64s(lates)
	st.lateP50 = percentile(lates, 0.5)
	return st
}
