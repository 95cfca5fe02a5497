package obs

import (
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4). It deduplicates HELP/TYPE headers per family so
// several labeled samples of one family can be emitted independently.
type PromWriter struct {
	w    io.Writer
	seen map[string]bool
	err  error // the first write error; it stops every later write
}

// NewPromWriter wraps w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: w, seen: make(map[string]bool)}
}

func (p *PromWriter) printf(format string, args ...any) {
	if p.err != nil {
		return
	}
	_, p.err = fmt.Fprintf(p.w, format, args...)
}

func (p *PromWriter) header(name, help, typ string) {
	if p.seen[name] {
		return
	}
	p.seen[name] = true
	p.printf("# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

func escapeLabel(v string) string {
	r := strings.NewReplacer(`\`, `\\`, `"`, `\"`, "\n", `\n`)
	return r.Replace(v)
}

// labelString renders alternating key, value pairs as {k="v",...}.
func labelString(labels []string) string {
	if len(labels) == 0 {
		return ""
	}
	var b strings.Builder
	b.WriteByte('{')
	for i := 0; i+1 < len(labels); i += 2 {
		if i > 0 {
			b.WriteByte(',')
		}
		b.WriteString(labels[i])
		b.WriteString(`="`)
		b.WriteString(escapeLabel(labels[i+1]))
		b.WriteByte('"')
	}
	b.WriteByte('}')
	return b.String()
}

func formatValue(v float64) string {
	if math.IsInf(v, 1) {
		return "+Inf"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Counter emits one counter sample; labels are alternating key, value.
func (p *PromWriter) Counter(name, help string, value float64, labels ...string) {
	p.header(name, help, "counter")
	p.printf("%s%s %s\n", name, labelString(labels), formatValue(value))
}

// Gauge emits one gauge sample; labels are alternating key, value.
func (p *PromWriter) Gauge(name, help string, value float64, labels ...string) {
	p.header(name, help, "gauge")
	p.printf("%s%s %s\n", name, labelString(labels), formatValue(value))
}

// StageHistograms emits every stage's snapshot as one Prometheus
// histogram family (seconds), labeled stage="<name>". Only the occupied
// bucket range is rendered (plus +Inf), keeping the scrape compact while
// staying valid cumulative-bucket output.
func (p *PromWriter) StageHistograms(name, help string, snaps map[string]Snapshot) {
	if len(snaps) == 0 {
		return
	}
	p.header(name, help, "histogram")
	stages := make([]string, 0, len(snaps))
	for stage := range snaps {
		stages = append(stages, stage)
	}
	sort.Strings(stages)
	for _, stage := range stages {
		s := snaps[stage]
		first, last := -1, -1
		for b := range s.Buckets {
			if s.Buckets[b] != 0 {
				if first < 0 {
					first = b
				}
				last = b
			}
		}
		var cum uint64
		if first >= 0 {
			for b := first; b <= last && b < NumBuckets-1; b++ {
				cum += s.Buckets[b]
				le := strconv.FormatFloat(BucketUpperNs(b)/1e9, 'g', -1, 64)
				p.printf("%s_bucket{stage=%q,le=%q} %d\n", name, stage, le, cum)
			}
		}
		p.printf("%s_bucket{stage=%q,le=\"+Inf\"} %d\n", name, stage, s.Count)
		p.printf("%s_sum{stage=%q} %s\n", name, stage, formatValue(float64(s.SumNs)/1e9))
		p.printf("%s_count{stage=%q} %d\n", name, stage, s.Count)
	}
}
