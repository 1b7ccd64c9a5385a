package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"slices"
	"sort"
)

// span is one timed call into a layer, recorded by the benchmark around
// the public function it calls. Spans of one request share ID: the
// experiment index, the partition, or the session.
type span struct {
	Name   string `json:"name"`
	ID     int64  `json:"id"`
	Parent int    `json:"parent"` // index into the span list; -1 for a root
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// tracer keeps spans in memory until the run ends.
type tracer struct{ spans []span }

// add records a span and returns its index for use as a parent.
func (t *tracer) add(name string, id int64, parent int, start, end int64) int {
	t.spans = append(t.spans, span{Name: name, ID: id, Parent: parent, Start: start, End: end})
	return len(t.spans) - 1
}

// layerRow is one line of the per-layer table: every span of one name,
// with self time being the part of each span its children do not cover.
type layerRow struct {
	Name    string  `json:"name"`
	Count   int     `json:"count"`
	TotalMS float64 `json:"total_ms"`
	SelfMS  float64 `json:"self_ms"`
}

// layerTable aggregates spans by name, sorted by self time.
func layerTable(spans []span) []layerRow {
	children := make(map[int][][2]int64)
	for _, s := range spans {
		if s.Parent >= 0 {
			children[s.Parent] = append(children[s.Parent], [2]int64{s.Start, s.End})
		}
	}
	rows := map[string]*layerRow{}
	for i, s := range spans {
		r := rows[s.Name]
		if r == nil {
			r = &layerRow{Name: s.Name}
			rows[s.Name] = r
		}
		d := s.End - s.Start
		r.Count++
		r.TotalMS += float64(d) / 1e6
		r.SelfMS += float64(d-covered(children[i], s.Start, s.End)) / 1e6
	}
	out := make([]layerRow, 0, len(rows))
	for _, r := range rows {
		out = append(out, *r)
	}
	sort.Slice(out, func(i, j int) bool {
		if out[i].SelfMS != out[j].SelfMS {
			return out[i].SelfMS > out[j].SelfMS
		}
		return out[i].Name < out[j].Name
	})
	return out
}

// covered is the length of the union of intervals clipped to [from, to).
// Children of one parent may overlap when they ran on different cores.
func covered(iv [][2]int64, from, to int64) int64 {
	if len(iv) == 0 {
		return 0
	}
	iv = slices.Clone(iv)
	sort.Slice(iv, func(i, j int) bool { return iv[i][0] < iv[j][0] })
	var total int64
	curS, curE := int64(0), int64(-1)
	flush := func() {
		s, e := max(curS, from), min(curE, to)
		if e > s {
			total += e - s
		}
	}
	for _, v := range iv {
		if v[0] > curE {
			flush()
			curS, curE = v[0], v[1]
			continue
		}
		curE = max(curE, v[1])
	}
	flush()
	return total
}

// printTable writes the per-layer table in fixed-width text.
func printTable(w io.Writer, rows []layerRow) {
	fmt.Fprintf(w, "%-28s %9s %12s %12s\n", "span", "count", "total_ms", "self_ms")
	for _, r := range rows {
		fmt.Fprintf(w, "%-28s %9d %12.3f %12.3f\n", r.Name, r.Count, r.TotalMS, r.SelfMS)
	}
}

// writeSpans stores the run's spans, its per-layer table and its
// provenance as one JSON document under dir.
func writeSpans(dir string, prov provenance, rows []layerRow, spans []span) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("%s-seed%d.json", prov.Workload, prov.Seed))
	data, err := json.Marshal(struct {
		Provenance provenance `json:"provenance"`
		Layers     []layerRow `json:"layers"`
		Spans      []span     `json:"spans"`
	}{prov, rows, spans})
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := os.WriteFile(path, data, 0o644); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
