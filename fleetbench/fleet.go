package main

import (
	"context"
	"fmt"
	"io"
	"math"
	"net/http"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"repro/internal/obs"
	"repro/internal/remote"
	"repro/internal/state"
)

// agentGroup runs in-process worker agents and waits for them to exit.
type agentGroup struct {
	wg   sync.WaitGroup
	mu   sync.Mutex
	errs []error
}

func (g *agentGroup) start(ctx context.Context, serve func(ctx context.Context) error) {
	g.wg.Add(1)
	go func() {
		defer g.wg.Done()
		if err := serve(ctx); err != nil && ctx.Err() == nil {
			g.mu.Lock()
			g.errs = append(g.errs, err)
			g.mu.Unlock()
		}
	}()
}

// wait returns the first error an agent ended with before its context
// was cancelled.
func (g *agentGroup) wait() error {
	g.wg.Wait()
	if len(g.errs) > 0 {
		return g.errs[0]
	}
	return nil
}

// waitRegistered polls until n agents have registered with srv, which
// offers a count but no signal.
func waitRegistered(srv *remote.Server, n int) error {
	deadline := time.Now().Add(10 * time.Second)
	for srv.Workers() < n {
		if time.Now().After(deadline) {
			return fmt.Errorf("only %d of %d agents registered within 10s", srv.Workers(), n)
		}
		time.Sleep(50 * time.Microsecond)
	}
	return nil
}

// promScrape holds one /metrics scrape: sample (name plus labels) to
// value.
type promScrape map[string]float64

func scrapeMetrics(baseURL string) (promScrape, error) {
	resp, err := http.Get(baseURL + "/metrics")
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	defer resp.Body.Close()
	body, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, fmt.Errorf("scrape /metrics: %w", err)
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("scrape /metrics: %s", resp.Status)
	}
	return obs.ParseProm(string(body)), nil
}

// histogram is a cumulative Prometheus histogram: bucket upper bounds
// in seconds and cumulative counts, ascending.
type histogram struct{ les, cum []float64 }

// histogram extracts the unlabeled histogram family name.
func (p promScrape) histogram(name string) histogram {
	prefix := name + `_bucket{le="`
	var h histogram
	type bucket struct{ le, n float64 }
	var bs []bucket
	for k, v := range p {
		if !strings.HasPrefix(k, prefix) {
			continue
		}
		le := math.Inf(1)
		if s := strings.TrimSuffix(k[len(prefix):], `"}`); s != "+Inf" {
			le, _ = strconv.ParseFloat(s, 64)
		}
		bs = append(bs, bucket{le, v})
	}
	sort.Slice(bs, func(i, j int) bool { return bs[i].le < bs[j].le })
	for _, b := range bs {
		h.les = append(h.les, b.le)
		h.cum = append(h.cum, b.n)
	}
	return h
}

// merge adds o's counts into h (both scraped from the same family).
func (h histogram) merge(o histogram) histogram {
	if len(h.cum) == 0 {
		return histogram{les: append([]float64(nil), o.les...), cum: append([]float64(nil), o.cum...)}
	}
	for i := range h.cum {
		if i < len(o.cum) {
			h.cum[i] += o.cum[i]
		}
	}
	return h
}

// quantileUs is the histogram's q-quantile in microseconds.
func (h histogram) quantileUs(q float64) float64 { return 1e6 * bucketQuantile(h.les, h.cum, q) }

// journalStats is what the gate learns from one recovered journal.
type journalStats struct {
	experiment string
	issues     int
	reports    int
	failed     int // failed reports
	snapshots  int
	snapTrials int // trial entries summed over every snapshot
	records    int // including the meta record
}

// checkJournal verifies the exactly-once contract on a recovered
// journal: every report answers an outstanding issue of the same
// (trial, rung), no (trial, rung) settles successfully twice, and at a
// clean end no issue is left unanswered. Violations are returned as
// messages.
func checkJournal(rec *state.Recovered) (journalStats, []string) {
	st := journalStats{experiment: rec.Meta.Experiment, records: 1 + len(rec.Records)}
	var bad []string
	outstanding := make(map[[2]int]int)
	settled := make(map[[2]int]bool)
	for i, r := range rec.Records {
		switch {
		case r.Issue != nil:
			st.issues++
			outstanding[[2]int{r.Issue.Trial, r.Issue.Rung}]++
		case r.Report != nil:
			st.reports++
			k := [2]int{r.Report.Trial, r.Report.Rung}
			if outstanding[k] == 0 {
				bad = append(bad, fmt.Sprintf("%s: record %d reports trial %d rung %d without an outstanding issue", st.experiment, i, k[0], k[1]))
				continue
			}
			outstanding[k]--
			if r.Report.Failed {
				st.failed++
			} else if settled[k] {
				bad = append(bad, fmt.Sprintf("%s: trial %d rung %d settled twice", st.experiment, k[0], k[1]))
			} else {
				settled[k] = true
			}
		case r.Snap != nil:
			st.snapshots++
			st.snapTrials += len(r.Snap.Trials)
		}
	}
	for k, n := range outstanding {
		if n != 0 {
			bad = append(bad, fmt.Sprintf("%s: trial %d rung %d has %d issues without a report", st.experiment, k[0], k[1], n))
		}
	}
	if rec.Truncated {
		bad = append(bad, st.experiment+": journal has a torn tail after a clean run")
	}
	return st, bad
}
