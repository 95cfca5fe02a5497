package obs

import (
	"strconv"
	"strings"
	"testing"
	"time"
)

func TestPromCounterGauge(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Counter("relm_sessions_created_total", "Sessions created.", 42)
	p.Gauge("relm_breaker_open", "Breaker state.", 1, "backend", "b1")
	p.Gauge("relm_breaker_open", "Breaker state.", 0, "backend", "b2")
	out := sb.String()
	if !strings.Contains(out, "# TYPE relm_sessions_created_total counter") {
		t.Fatalf("missing counter header: %q", out)
	}
	if !strings.Contains(out, "relm_sessions_created_total 42") {
		t.Fatalf("missing counter sample: %q", out)
	}
	if strings.Count(out, "# TYPE relm_breaker_open gauge") != 1 {
		t.Fatalf("gauge header not deduplicated: %q", out)
	}
	if !strings.Contains(out, `relm_breaker_open{backend="b1"} 1`) ||
		!strings.Contains(out, `relm_breaker_open{backend="b2"} 0`) {
		t.Fatalf("missing gauge samples: %q", out)
	}
}

func TestPromLabelEscaping(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.Gauge("g", "h", 1, "k", `va"l\ue`+"\n")
	if !strings.Contains(sb.String(), `{k="va\"l\\ue\n"}`) {
		t.Fatalf("label not escaped: %q", sb.String())
	}
}

func TestPromStageHistograms(t *testing.T) {
	h := NewHistogram()
	for i := 0; i < 100; i++ {
		h.Record(time.Microsecond)
	}
	h.Record(time.Millisecond)
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.StageHistograms("relm_stage_latency_seconds", "Per-stage latency.",
		map[string]Snapshot{"wal.append": h.Snapshot()})
	out := sb.String()
	if !strings.Contains(out, "# TYPE relm_stage_latency_seconds histogram") {
		t.Fatalf("missing histogram header: %q", out)
	}
	if !strings.Contains(out, `relm_stage_latency_seconds_bucket{stage="wal.append",le="+Inf"} 101`) {
		t.Fatalf("missing +Inf bucket: %q", out)
	}
	if !strings.Contains(out, `relm_stage_latency_seconds_count{stage="wal.append"} 101`) {
		t.Fatalf("missing count: %q", out)
	}
	// Buckets must be cumulative: parse every bucket sample in order and
	// assert the counts never decrease.
	var prev int64 = -1
	for _, line := range strings.Split(out, "\n") {
		if !strings.HasPrefix(line, "relm_stage_latency_seconds_bucket") {
			continue
		}
		fields := strings.Fields(line)
		v, err := strconv.ParseInt(fields[len(fields)-1], 10, 64)
		if err != nil {
			t.Fatalf("bad bucket line %q: %v", line, err)
		}
		if v < prev {
			t.Fatalf("buckets not cumulative at %q (prev %d)", line, prev)
		}
		prev = v
	}
	if prev != 101 {
		t.Fatalf("last cumulative bucket = %d, want 101", prev)
	}
}

func TestPromEmptyStageHistograms(t *testing.T) {
	var sb strings.Builder
	p := NewPromWriter(&sb)
	p.StageHistograms("x", "h", nil)
	if sb.Len() != 0 {
		t.Fatalf("empty snapshot map produced output: %q", sb.String())
	}
	// A registered-but-never-recorded stage still emits valid output.
	p.StageHistograms("x", "h", map[string]Snapshot{"idle": {}})
	out := sb.String()
	if !strings.Contains(out, `x_bucket{stage="idle",le="+Inf"} 0`) {
		t.Fatalf("empty stage missing +Inf bucket: %q", out)
	}
}
