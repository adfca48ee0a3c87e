package obs

import (
	"bufio"
	"bytes"
	"fmt"
	"io"
	"math"
	"sort"
	"strconv"
	"strings"
)

// Parser and validator for Prometheus text exposition format v0.0.4 —
// the promtool-style checker `make metrics-smoke` (cmd/expcheck) runs
// against a live bfsd /metrics page, and the reader bfsload uses to
// reconstruct server-side latency quantiles from the labeled
// histograms. Self-contained on purpose: the module has no
// prometheus dependency, and our own encoder (Registry.WriteExposition)
// is exactly the dialect the validator accepts.

// ExpoSample is one parsed sample line.
type ExpoSample struct {
	Name   string
	Labels map[string]string
	Value  float64
}

// ExpoFamily groups the samples of one metric family, with whatever
// HELP/TYPE metadata the page declared ("untyped" when none).
type ExpoFamily struct {
	Name    string
	Help    string
	Type    string
	Samples []ExpoSample
}

// ExpoStats summarizes a validated page.
type ExpoStats struct {
	Families   int
	Samples    int
	Histograms int
}

// histogramSuffixes maps a sample name back to its histogram family.
var histogramSuffixes = []string{"_bucket", "_sum", "_count"}

// familyOf resolves which family a sample belongs to given the
// declared types seen so far.
func familyOf(name string, types map[string]string) string {
	for _, suf := range histogramSuffixes {
		base := strings.TrimSuffix(name, suf)
		if base != name && types[base] == "histogram" {
			return base
		}
	}
	return name
}

// ParseExposition reads a text exposition page into families, in page
// order. It performs full syntactic validation (the same checks
// ValidateExposition applies) and returns the first problem with its
// line number.
func ParseExposition(r io.Reader) ([]ExpoFamily, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 64*1024), 1<<20)
	sc.Split(splitLines)

	help := make(map[string]string)
	types := make(map[string]string)
	order := []string{}
	samples := make(map[string][]ExpoSample)
	// closed marks families already interrupted by another family's
	// samples: exposition requires all lines of a family contiguous.
	lastFamily := ""
	closed := make(map[string]bool)
	seenSeries := make(map[string]bool)

	lineNo := 0
	for sc.Scan() {
		lineNo++
		line := sc.Text()
		if strings.TrimSpace(line) == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			kw, name, rest, err := parseComment(line)
			if err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
			if kw == "" { // plain comment
				continue
			}
			if !metricNameRe.MatchString(name) {
				return nil, fmt.Errorf("line %d: invalid metric name %q in # %s", lineNo, name, kw)
			}
			switch kw {
			case "HELP":
				if _, dup := help[name]; dup {
					return nil, fmt.Errorf("line %d: second HELP for %q", lineNo, name)
				}
				help[name] = rest
			case "TYPE":
				if _, dup := types[name]; dup {
					return nil, fmt.Errorf("line %d: second TYPE for %q", lineNo, name)
				}
				switch rest {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					return nil, fmt.Errorf("line %d: unknown type %q for %q", lineNo, rest, name)
				}
				if len(samples[name]) > 0 {
					return nil, fmt.Errorf("line %d: TYPE for %q after its samples", lineNo, name)
				}
				types[name] = rest
			}
			continue
		}
		s, err := parseSampleLine(line)
		if err != nil {
			return nil, fmt.Errorf("line %d: %v", lineNo, err)
		}
		fam := familyOf(s.Name, types)
		if typ, ok := types[fam]; ok {
			if err := checkSampleName(s.Name, fam, typ); err != nil {
				return nil, fmt.Errorf("line %d: %v", lineNo, err)
			}
		}
		if fam != lastFamily {
			if closed[fam] {
				return nil, fmt.Errorf("line %d: family %q reappears after other families (samples must be contiguous)", lineNo, fam)
			}
			if lastFamily != "" {
				closed[lastFamily] = true
			}
			lastFamily = fam
		}
		key := seriesKey(s)
		if seenSeries[key] {
			return nil, fmt.Errorf("line %d: duplicate series %s", lineNo, key)
		}
		seenSeries[key] = true
		if len(samples[fam]) == 0 {
			order = append(order, fam)
		}
		samples[fam] = append(samples[fam], s)
	}
	if err := sc.Err(); err != nil {
		return nil, err
	}

	out := make([]ExpoFamily, 0, len(order))
	for _, fam := range order {
		f := ExpoFamily{
			Name:    fam,
			Help:    help[fam],
			Type:    types[fam],
			Samples: samples[fam],
		}
		if f.Type == "" {
			f.Type = "untyped"
		}
		if f.Type == "histogram" {
			if err := checkHistogramFamily(f); err != nil {
				return nil, err
			}
		}
		out = append(out, f)
	}
	return out, nil
}

// splitLines splits at '\n', the format's only line break. Unlike
// bufio.ScanLines it keeps a '\r' before the break: that byte belongs
// to the line, and a HELP text may end in one.
func splitLines(data []byte, atEOF bool) (advance int, token []byte, err error) {
	if i := bytes.IndexByte(data, '\n'); i >= 0 {
		return i + 1, data[:i], nil
	}
	if atEOF && len(data) > 0 {
		return len(data), data, nil
	}
	return 0, nil, nil
}

// ValidateExposition checks a page end to end and reports summary
// stats — the promtool-equivalent entry point. On top of the syntax
// ParseExposition checks, every family must declare a concrete type:
// the pages this repo renders are fully typed, and an untyped family
// means a second, unregistered dialect crept onto the page.
func ValidateExposition(r io.Reader) (ExpoStats, error) {
	fams, err := ParseExposition(r)
	if err != nil {
		return ExpoStats{}, err
	}
	st := ExpoStats{Families: len(fams)}
	for _, f := range fams {
		if f.Type == "untyped" {
			return ExpoStats{}, fmt.Errorf("family %q is untyped (no # TYPE counter, gauge, histogram or summary)", f.Name)
		}
		if f.Type == "histogram" {
			st.Histograms++
		}
		st.Samples += len(f.Samples)
	}
	return st, nil
}

// parseComment splits a # line: returns ("", ...) for plain comments,
// or the keyword (HELP/TYPE), metric name, and remainder.
func parseComment(line string) (kw, name, rest string, err error) {
	body := strings.TrimPrefix(line, "#")
	body = strings.TrimLeft(body, " ")
	word, tail, _ := strings.Cut(body, " ")
	if word != "HELP" && word != "TYPE" {
		return "", "", "", nil
	}
	name, rest, ok := strings.Cut(tail, " ")
	if name == "" {
		return "", "", "", fmt.Errorf("# %s without a metric name", word)
	}
	if word == "TYPE" && !ok {
		return "", "", "", fmt.Errorf("# TYPE %s without a type", name)
	}
	if word == "HELP" {
		rest = unescapeHelp(rest)
	}
	return word, name, rest, nil
}

// unescapeHelp decodes the two HELP escapes, \\ and \n, in one
// left-to-right pass, so the backslash an escaped backslash decodes to
// never pairs with the byte after it. Any other backslash stays as
// written.
func unescapeHelp(s string) string {
	var b strings.Builder
	for i := 0; i < len(s); i++ {
		if s[i] == '\\' && i+1 < len(s) {
			switch s[i+1] {
			case '\\':
				b.WriteByte('\\')
				i++
				continue
			case 'n':
				b.WriteByte('\n')
				i++
				continue
			}
		}
		b.WriteByte(s[i])
	}
	return b.String()
}

// parseSampleLine parses `name{label="value",...} value [timestamp]`.
func parseSampleLine(line string) (ExpoSample, error) {
	s := ExpoSample{}
	i := 0
	for i < len(line) && line[i] != '{' && line[i] != ' ' && line[i] != '\t' {
		i++
	}
	s.Name = line[:i]
	if !metricNameRe.MatchString(s.Name) {
		return s, fmt.Errorf("invalid metric name %q", s.Name)
	}
	rest := line[i:]
	if strings.HasPrefix(rest, "{") {
		labels, tail, err := parseLabels(rest)
		if err != nil {
			return s, err
		}
		s.Labels = labels
		rest = tail
	}
	rest = strings.TrimLeft(rest, " \t")
	valStr, tsStr, _ := strings.Cut(rest, " ")
	if valStr == "" {
		return s, fmt.Errorf("sample %q has no value", s.Name)
	}
	v, err := parseValue(valStr)
	if err != nil {
		return s, fmt.Errorf("sample %q: bad value %q", s.Name, valStr)
	}
	s.Value = v
	if tsStr = strings.TrimSpace(tsStr); tsStr != "" {
		if _, err := strconv.ParseInt(tsStr, 10, 64); err != nil {
			return s, fmt.Errorf("sample %q: bad timestamp %q", s.Name, tsStr)
		}
	}
	return s, nil
}

func parseValue(s string) (float64, error) {
	switch s {
	case "+Inf":
		return math.Inf(1), nil
	case "-Inf":
		return math.Inf(-1), nil
	case "NaN":
		return math.NaN(), nil
	}
	return strconv.ParseFloat(s, 64)
}

// parseLabels consumes a {..} label block and returns the remainder.
func parseLabels(s string) (map[string]string, string, error) {
	labels := make(map[string]string)
	i := 1 // past '{'
	for {
		for i < len(s) && (s[i] == ' ' || s[i] == ',') {
			i++
		}
		if i < len(s) && s[i] == '}' {
			return labels, s[i+1:], nil
		}
		start := i
		for i < len(s) && s[i] != '=' {
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("unterminated label block")
		}
		name := strings.TrimSpace(s[start:i])
		if !labelNameRe.MatchString(name) {
			return nil, "", fmt.Errorf("invalid label name %q", name)
		}
		if _, dup := labels[name]; dup {
			return nil, "", fmt.Errorf("duplicate label %q", name)
		}
		i++ // past '='
		if i >= len(s) || s[i] != '"' {
			return nil, "", fmt.Errorf("label %q value not quoted", name)
		}
		i++
		var val strings.Builder
		for i < len(s) && s[i] != '"' {
			if s[i] == '\\' && i+1 < len(s) {
				i++
				switch s[i] {
				case 'n':
					val.WriteByte('\n')
				case '\\', '"':
					val.WriteByte(s[i])
				default:
					return nil, "", fmt.Errorf("label %q: bad escape \\%c", name, s[i])
				}
			} else {
				val.WriteByte(s[i])
			}
			i++
		}
		if i >= len(s) {
			return nil, "", fmt.Errorf("label %q value unterminated", name)
		}
		i++ // past closing quote
		labels[name] = val.String()
	}
}

// seriesKey identifies one series: name plus sorted label pairs.
func seriesKey(s ExpoSample) string {
	if len(s.Labels) == 0 {
		return s.Name
	}
	keys := make([]string, 0, len(s.Labels))
	for k := range s.Labels {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var sb strings.Builder
	sb.WriteString(s.Name)
	sb.WriteByte('{')
	for i, k := range keys {
		if i > 0 {
			sb.WriteByte(',')
		}
		fmt.Fprintf(&sb, "%s=%q", k, s.Labels[k])
	}
	sb.WriteByte('}')
	return sb.String()
}

// checkSampleName enforces which sample names a declared family may
// emit: histograms expand to _bucket/_sum/_count, everything else uses
// the bare family name.
func checkSampleName(sample, fam, typ string) error {
	if typ == "histogram" {
		switch sample {
		case fam + "_bucket", fam + "_sum", fam + "_count":
			return nil
		}
		return fmt.Errorf("histogram %q has stray sample %q", fam, sample)
	}
	if sample != fam {
		return fmt.Errorf("%s %q has stray sample %q", typ, fam, sample)
	}
	return nil
}

// checkHistogramFamily verifies per label-set (le excluded): le values
// parse, buckets are cumulative and non-decreasing in le order, a +Inf
// bucket exists, _count matches it, and _sum is present.
func checkHistogramFamily(f ExpoFamily) error {
	type series struct {
		buckets  []HistBucket
		count    float64
		hasCount bool
		hasSum   bool
	}
	groups := make(map[string]*series)
	keyOf := func(labels map[string]string) string {
		keys := make([]string, 0, len(labels))
		for k := range labels {
			if k == "le" {
				continue
			}
			keys = append(keys, k)
		}
		sort.Strings(keys)
		var sb strings.Builder
		for _, k := range keys {
			fmt.Fprintf(&sb, "%s=%q,", k, labels[k])
		}
		return sb.String()
	}
	for _, s := range f.Samples {
		key := keyOf(s.Labels)
		g := groups[key]
		if g == nil {
			g = &series{}
			groups[key] = g
		}
		switch s.Name {
		case f.Name + "_bucket":
			leStr, ok := s.Labels["le"]
			if !ok {
				return fmt.Errorf("histogram %q: _bucket without le label", f.Name)
			}
			le, err := parseValue(leStr)
			if err != nil {
				return fmt.Errorf("histogram %q: bad le %q", f.Name, leStr)
			}
			g.buckets = append(g.buckets, HistBucket{LE: le, Count: s.Value})
		case f.Name + "_count":
			g.count, g.hasCount = s.Value, true
		case f.Name + "_sum":
			g.hasSum = true
		}
	}
	for key, g := range groups {
		if len(g.buckets) == 0 {
			return fmt.Errorf("histogram %q{%s}: no buckets", f.Name, key)
		}
		sort.Slice(g.buckets, func(i, j int) bool { return g.buckets[i].LE < g.buckets[j].LE })
		last := g.buckets[len(g.buckets)-1]
		if !math.IsInf(last.LE, 1) {
			return fmt.Errorf("histogram %q{%s}: no +Inf bucket", f.Name, key)
		}
		for i := 1; i < len(g.buckets); i++ {
			if g.buckets[i].Count < g.buckets[i-1].Count {
				return fmt.Errorf("histogram %q{%s}: bucket counts decrease at le=%v", f.Name, key, g.buckets[i].LE)
			}
		}
		if !g.hasCount {
			return fmt.Errorf("histogram %q{%s}: missing _count", f.Name, key)
		}
		if g.count != last.Count {
			return fmt.Errorf("histogram %q{%s}: _count %v != +Inf bucket %v", f.Name, key, g.count, last.Count)
		}
		if !g.hasSum {
			return fmt.Errorf("histogram %q{%s}: missing _sum", f.Name, key)
		}
	}
	return nil
}

// HistBucket is one cumulative histogram bucket: the upper bound
// and the count of observations at or below it.
type HistBucket struct {
	LE    float64
	Count float64
}

// HistogramQuantile reconstructs the q-quantile from cumulative
// buckets (nearest-rank over bucket upper bounds): the smallest le
// whose cumulative count covers q of the observations. Buckets need
// not be sorted. With only the +Inf bucket populated it returns +Inf;
// with no observations it returns NaN. Resolution is the bucket width,
// which for power-of-two bounds means client- and server-side
// quantiles agree to within one bucket.
func HistogramQuantile(q float64, buckets []HistBucket) float64 {
	bs := append([]HistBucket(nil), buckets...)
	sort.Slice(bs, func(i, j int) bool { return bs[i].LE < bs[j].LE })
	if len(bs) == 0 {
		return math.NaN()
	}
	total := bs[len(bs)-1].Count
	if total == 0 {
		return math.NaN()
	}
	rank := q * total
	for _, b := range bs {
		if b.Count >= rank && b.Count > 0 {
			return b.LE
		}
	}
	return bs[len(bs)-1].LE
}

// HistogramBuckets extracts the cumulative buckets of one histogram
// series group from a parsed family, summing across samples that share
// the selecting labels (pass nil to merge every series). The le label
// is consumed; all other labels must match want exactly on the keys
// want names.
func HistogramBuckets(f ExpoFamily, want map[string]string) []HistBucket {
	byLE := make(map[float64]float64)
	for _, s := range f.Samples {
		if s.Name != f.Name+"_bucket" {
			continue
		}
		leStr, ok := s.Labels["le"]
		if !ok {
			continue
		}
		le, err := parseValue(leStr)
		if err != nil {
			continue
		}
		match := true
		for k, v := range want {
			if s.Labels[k] != v {
				match = false
				break
			}
		}
		if !match {
			continue
		}
		byLE[le] += s.Value
	}
	out := make([]HistBucket, 0, len(byLE))
	for le, c := range byLE {
		out = append(out, HistBucket{LE: le, Count: c})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].LE < out[j].LE })
	return out
}
