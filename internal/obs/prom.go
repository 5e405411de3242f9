package obs

import (
	"bufio"
	"fmt"
	"io"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// PromWriter renders metrics in the Prometheus text exposition format
// (version 0.0.4) with no dependency beyond the standard library. It is
// the serialisation half of the /metrics endpoint: callers declare a
// family (HELP + TYPE) and then emit its samples; the writer enforces
// the format's ordering rules (a family's metadata precedes its samples,
// each family appears once) so the output always passes LintProm.
type PromWriter struct {
	w        *bufio.Writer
	err      error
	families map[string]bool
}

// Label is one name="value" pair on a sample.
type Label struct {
	Name  string
	Value string
}

// NewPromWriter creates a writer targeting w.
func NewPromWriter(w io.Writer) *PromWriter {
	return &PromWriter{w: bufio.NewWriter(w), families: make(map[string]bool)}
}

// Family declares a metric family: one HELP and one TYPE line. typ is
// "counter", "gauge" or "histogram". Declaring the same family twice is
// an error (the exposition format forbids it).
func (p *PromWriter) Family(name, typ, help string) {
	if p.err != nil {
		return
	}
	if p.families[name] {
		p.err = fmt.Errorf("prom: family %q declared twice", name)
		return
	}
	p.families[name] = true
	// HELP text must not contain raw newlines; escape per the format.
	help = strings.ReplaceAll(help, "\\", `\\`)
	help = strings.ReplaceAll(help, "\n", `\n`)
	_, p.err = fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
}

// Sample emits one sample line for a declared family. For histogram
// families the caller passes the full sample name (name_bucket,
// name_sum, name_count); Histogram below does this for a snapshot.
func (p *PromWriter) Sample(name string, labels []Label, v float64) {
	if p.err != nil {
		return
	}
	var sb strings.Builder
	sb.WriteString(name)
	if len(labels) > 0 {
		sb.WriteByte('{')
		for i, l := range labels {
			if i > 0 {
				sb.WriteByte(',')
			}
			sb.WriteString(l.Name)
			sb.WriteString(`="`)
			sb.WriteString(escapeLabel(l.Value))
			sb.WriteByte('"')
		}
		sb.WriteByte('}')
	}
	_, p.err = fmt.Fprintf(p.w, "%s %s\n", sb.String(), formatFloat(v))
}

// Histogram declares and emits a full histogram family from a snapshot:
// cumulative _bucket samples (the snapshot's per-bucket counts summed),
// the mandatory le="+Inf" bucket, _sum and _count. extra labels are
// attached to every sample.
func (p *PromWriter) Histogram(name, help string, s HistogramSnapshot, extra ...Label) {
	p.Family(name, "histogram", help)
	var cum uint64
	for _, b := range s.Buckets {
		cum += b.Count
		le := b.Le
		if le == "+inf" {
			le = "+Inf"
		}
		labels := append(append([]Label(nil), extra...), Label{Name: "le", Value: le})
		p.Sample(name+"_bucket", labels, float64(cum))
	}
	p.Sample(name+"_sum", extra, float64(s.Sum))
	p.Sample(name+"_count", extra, float64(s.Count))
}

// Err returns the first error seen.
func (p *PromWriter) Err() error { return p.err }

// Flush writes buffered output through and returns the first error.
func (p *PromWriter) Flush() error {
	if p.err != nil {
		return p.err
	}
	p.err = p.w.Flush()
	return p.err
}

func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, "\\", `\\`)
	v = strings.ReplaceAll(v, "\"", `\"`)
	return strings.ReplaceAll(v, "\n", `\n`)
}

func formatFloat(v float64) string {
	switch {
	case math.IsInf(v, 1):
		return "+Inf"
	case math.IsInf(v, -1):
		return "-Inf"
	case math.IsNaN(v):
		return "NaN"
	}
	return strconv.FormatFloat(v, 'g', -1, 64)
}

// Exposition-format grammar fragments for LintProm.
var (
	promNameRE   = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)
	promLabelRE  = regexp.MustCompile(`^[a-zA-Z_][a-zA-Z0-9_]*$`)
	promSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(\{([^}]*)\})?\s+(\S+)(\s+-?\d+)?\s*$`)
)

// LintProm validates a Prometheus text-format exposition: metadata
// syntax, TYPE values, name and label grammar, parseable sample values,
// no duplicate series, every sample's base family declared by a
// preceding TYPE line, and histogram invariants (an le label on every
// _bucket, a final le="+Inf" bucket equal to _count, non-decreasing
// cumulative buckets). It is the check CI runs against a live /metrics
// scrape, so the error messages carry line numbers.
func LintProm(r io.Reader) error {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	types := make(map[string]string) // family -> type
	seen := make(map[string]bool)    // full series (name + sorted labels)
	lastCum := make(map[string]float64)
	infBucket := make(map[string]float64)
	counts := make(map[string]float64)
	line := 0
	for sc.Scan() {
		line++
		text := sc.Text()
		if strings.TrimSpace(text) == "" {
			continue
		}
		if strings.HasPrefix(text, "#") {
			fields := strings.SplitN(text, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !promNameRE.MatchString(name) {
				return fmt.Errorf("prom: line %d: bad metric name %q in %s", line, name, fields[1])
			}
			if fields[1] == "TYPE" {
				if len(fields) != 4 {
					return fmt.Errorf("prom: line %d: TYPE needs a type", line)
				}
				switch fields[3] {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return fmt.Errorf("prom: line %d: unknown type %q", line, fields[3])
				}
				if _, dup := types[name]; dup {
					return fmt.Errorf("prom: line %d: duplicate TYPE for %q", line, name)
				}
				types[name] = fields[3]
			}
			continue
		}
		m := promSampleRE.FindStringSubmatch(text)
		if m == nil {
			return fmt.Errorf("prom: line %d: unparseable sample %q", line, text)
		}
		name, rawLabels, rawVal := m[1], m[3], m[4]
		v, err := parsePromValue(rawVal)
		if err != nil {
			return fmt.Errorf("prom: line %d: %v", line, err)
		}
		labels, err := parsePromLabels(rawLabels)
		if err != nil {
			return fmt.Errorf("prom: line %d: %v", line, err)
		}
		base := promBase(name, types)
		if _, ok := types[base]; !ok {
			return fmt.Errorf("prom: line %d: sample %q has no preceding TYPE line", line, name)
		}
		series := name + "|" + canonicalLabels(labels)
		if seen[series] {
			return fmt.Errorf("prom: line %d: duplicate series %s", line, series)
		}
		seen[series] = true
		if types[base] == "histogram" {
			key := base + "|" + canonicalLabels(withoutLe(labels))
			switch {
			case name == base+"_bucket":
				le, ok := labels["le"]
				if !ok {
					return fmt.Errorf("prom: line %d: histogram bucket without le label", line)
				}
				if v < lastCum[key] {
					return fmt.Errorf("prom: line %d: histogram %s buckets not cumulative", line, base)
				}
				lastCum[key] = v
				if le == "+Inf" {
					infBucket[key] = v
				}
			case name == base+"_count":
				counts[key] = v
			}
		}
	}
	if err := sc.Err(); err != nil {
		return fmt.Errorf("prom: read: %w", err)
	}
	//lint:allow determinism -- exposition validation; order only picks which violation is reported first
	for key, inf := range infBucket {
		if c, ok := counts[key]; ok && c != inf {
			return fmt.Errorf("prom: histogram %s: le=\"+Inf\" bucket %g != _count %g", key, inf, c)
		}
	}
	//lint:allow determinism -- exposition validation; order only picks which violation is reported first
	for key := range counts {
		if _, ok := infBucket[key]; !ok {
			return fmt.Errorf("prom: histogram %s: missing le=\"+Inf\" bucket", key)
		}
	}
	return nil
}

func parsePromValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	v, err := strconv.ParseFloat(s, 64)
	if err != nil {
		return 0, fmt.Errorf("bad sample value %q", s)
	}
	return v, nil
}

func parsePromLabels(raw string) (map[string]string, error) {
	labels := make(map[string]string)
	rest := strings.TrimSpace(raw)
	for rest != "" {
		eq := strings.IndexByte(rest, '=')
		if eq < 0 {
			return nil, fmt.Errorf("bad label syntax %q", raw)
		}
		name := strings.TrimSpace(rest[:eq])
		if !promLabelRE.MatchString(name) {
			return nil, fmt.Errorf("bad label name %q", name)
		}
		rest = rest[eq+1:]
		if len(rest) == 0 || rest[0] != '"' {
			return nil, fmt.Errorf("unquoted label value for %q", name)
		}
		rest = rest[1:]
		var val strings.Builder
		closed := false
		for i := 0; i < len(rest); i++ {
			c := rest[i]
			if c == '\\' && i+1 < len(rest) {
				i++
				switch rest[i] {
				case 'n':
					val.WriteByte('\n')
				default:
					val.WriteByte(rest[i])
				}
				continue
			}
			if c == '"' {
				rest = strings.TrimPrefix(strings.TrimSpace(rest[i+1:]), ",")
				rest = strings.TrimSpace(rest)
				closed = true
				break
			}
			val.WriteByte(c)
		}
		if !closed {
			return nil, fmt.Errorf("unterminated label value for %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, fmt.Errorf("duplicate label %q", name)
		}
		labels[name] = val.String()
	}
	return labels, nil
}

// promBase strips a histogram sample suffix when the remaining name is a
// declared histogram family.
func promBase(name string, types map[string]string) string {
	for _, suffix := range [...]string{"_bucket", "_sum", "_count"} {
		base := strings.TrimSuffix(name, suffix)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

func withoutLe(labels map[string]string) map[string]string {
	out := make(map[string]string, len(labels))
	//lint:allow determinism -- builds a map consumed only via sorted canonicalLabels
	for k, v := range labels {
		if k != "le" {
			out[k] = v
		}
	}
	return out
}

func canonicalLabels(labels map[string]string) string {
	keys := make([]string, 0, len(labels))
	for k := range labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	for _, k := range keys {
		sb.WriteString(k)
		sb.WriteByte('=')
		sb.WriteString(labels[k])
		sb.WriteByte(';')
	}
	return sb.String()
}
