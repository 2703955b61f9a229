package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"strconv"
	"time"

	"ripple/internal/codec"
)

// OTLP/JSON export: the OpenTelemetry OTLP trace shape
// (resourceSpans -> scopeSpans -> spans) rendered with encoding/json, so
// dumps load directly into any OTLP-speaking backend or viewer. Only the
// fields Ripple populates are emitted; ID fields use the OTLP hex forms
// (32-char traceId, 16-char spanId).

type otlpExport struct {
	ResourceSpans []otlpResourceSpans `json:"resourceSpans"`
}

type otlpResourceSpans struct {
	Resource   otlpResource     `json:"resource"`
	ScopeSpans []otlpScopeSpans `json:"scopeSpans"`
}

type otlpResource struct {
	Attributes []otlpAttr `json:"attributes"`
}

type otlpScopeSpans struct {
	Scope otlpScope  `json:"scope"`
	Spans []otlpSpan `json:"spans"`
}

type otlpScope struct {
	Name string `json:"name"`
}

type otlpSpan struct {
	TraceID      string     `json:"traceId"`
	SpanID       string     `json:"spanId"`
	ParentSpanID string     `json:"parentSpanId,omitempty"`
	Name         string     `json:"name"`
	Kind         int        `json:"kind"`
	StartNano    string     `json:"startTimeUnixNano"`
	EndNano      string     `json:"endTimeUnixNano"`
	Attributes   []otlpAttr `json:"attributes,omitempty"`
}

type otlpAttr struct {
	Key   string    `json:"key"`
	Value otlpValue `json:"value"`
}

// otlpValue is the OTLP AnyValue union; exactly one field is set.
type otlpValue struct {
	Str *string `json:"stringValue,omitempty"`
	Int *string `json:"intValue,omitempty"` // int64 as string, per OTLP/JSON
}

func strAttr(key, v string) otlpAttr { return otlpAttr{Key: key, Value: otlpValue{Str: &v}} }
func intAttr(key string, v int64) otlpAttr {
	s := strconv.FormatInt(v, 10)
	return otlpAttr{Key: key, Value: otlpValue{Int: &s}}
}

const otlpInternalSpanKind = 1 // SPAN_KIND_INTERNAL

// WriteOTLP renders spans as one OTLP/JSON export document. base anchors
// the monotonic At offsets to wall-clock time (use Tracer.WallStart; a zero
// base leaves timestamps relative to the unix epoch, which preserves
// ordering and durations). Spans without trace context (flat records) are
// exported under the all-zeros trace ID with synthetic span IDs; spans that
// share an addressable ID — e.g. job_start and job_end both carry the root
// span ID — are uniquified by seq so the document never declares the same
// spanId twice.
func WriteOTLP(w io.Writer, spans []Span, base time.Time) error {
	out := make([]otlpSpan, 0, len(spans))
	seen := make(map[uint64]bool, len(spans))
	for _, s := range spans {
		id := s.Span
		if id == 0 || seen[id] {
			id = nonzero(codec.Mix64(fnvUint64(fnvUint64(fnvOffset64, s.Span), s.Seq)))
		}
		seen[id] = true
		start := base.Add(s.At)
		os := otlpSpan{
			TraceID:   fmt.Sprintf("%032x", s.Trace),
			SpanID:    fmt.Sprintf("%016x", id),
			Name:      s.Kind.String(),
			Kind:      otlpInternalSpanKind,
			StartNano: strconv.FormatInt(start.UnixNano(), 10),
			EndNano:   strconv.FormatInt(start.Add(s.Dur).UnixNano(), 10),
		}
		if s.Parent != 0 {
			os.ParentSpanID = fmt.Sprintf("%016x", s.Parent)
		}
		attrs := make([]otlpAttr, 0, 5+len(s.Attrs))
		attrs = append(attrs, intAttr("ripple.seq", int64(s.Seq)))
		if s.Job != "" {
			attrs = append(attrs, strAttr("ripple.job", s.Job))
		}
		attrs = append(attrs,
			intAttr("ripple.step", int64(s.Step)),
			intAttr("ripple.part", int64(s.Part)))
		if s.N != 0 {
			attrs = append(attrs, intAttr("ripple.n", s.N))
		}
		if s.Span != 0 && id != s.Span {
			// Preserve the engine-assigned ID so lineage joins still work
			// after a round-trip through the uniquified document.
			attrs = append(attrs, intAttr("ripple.span", int64(s.Span)))
		}
		for _, k := range sortedAttrKeys(s.Attrs) {
			attrs = append(attrs, strAttr(k, s.Attrs[k]))
		}
		os.Attributes = attrs
		out = append(out, os)
	}
	doc := otlpExport{ResourceSpans: []otlpResourceSpans{{
		Resource: otlpResource{Attributes: []otlpAttr{strAttr("service.name", "ripple")}},
		ScopeSpans: []otlpScopeSpans{{
			Scope: otlpScope{Name: "ripple/internal/trace"},
			Spans: out,
		}},
	}}}
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	return enc.Encode(doc)
}

// WriteOTLP dumps the tracer's retained spans as OTLP/JSON, anchored at the
// tracer's wall-clock start. A nil tracer writes an empty document.
func (t *Tracer) WriteOTLP(w io.Writer) error {
	return WriteOTLP(w, t.Snapshot(), t.WallStart())
}

func sortedAttrKeys(m map[string]string) []string {
	if len(m) == 0 {
		return nil
	}
	keys := make([]string, 0, len(m))
	for k := range m {
		keys = append(keys, k)
	}
	for i := 1; i < len(keys); i++ { // insertion sort; attr maps are tiny
		for j := i; j > 0 && keys[j] < keys[j-1]; j-- {
			keys[j], keys[j-1] = keys[j-1], keys[j]
		}
	}
	return keys
}
