// Package obstest holds test helpers for the telemetry layer. It imports
// only the standard library, so obs's own tests can use it too.
package obstest

import (
	"fmt"
	"math"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// LintText checks a Prometheus text exposition payload the way
// `promtool check metrics` would, returning one message per problem
// (nil means clean). It enforces the format rules plus the conventions
// the obs registry promises:
//
//   - every sample belongs to a family announced by HELP and TYPE
//   - TYPE is counter, gauge or histogram; counters end in _total
//   - label names are valid and label values properly quoted
//   - no duplicate series within a family
//   - histogram buckets are cumulative and non-decreasing, the +Inf
//     bucket exists and equals _count, and _sum/_count are present
func LintText(data []byte) []string {
	var probs []string
	addf := func(line int, format string, args ...any) {
		probs = append(probs, fmt.Sprintf("line %d: %s", line, fmt.Sprintf(format, args...)))
	}

	type histSeries struct {
		bounds []float64 // le values in file order
		counts []float64
		hasInf bool
		inf    float64
		sum    bool
		count  bool
		countV float64
	}
	type famState struct {
		name    string
		typ     string
		help    bool
		samples int
		seen    map[string]bool        // full series signature → dup detection
		hists   map[string]*histSeries // base label signature → histogram state
		line    int
	}

	var fams []*famState
	var cur *famState
	byName := make(map[string]*famState)

	getFam := func(name string) *famState {
		return byName[name]
	}
	finishHist := func(f *famState) {
		if f == nil || f.typ != "histogram" {
			return
		}
		keys := make([]string, 0, len(f.hists))
		for k := range f.hists {
			keys = append(keys, k)
		}
		sort.Strings(keys)
		for _, k := range keys {
			h := f.hists[k]
			where := f.name
			if k != "" {
				where = f.name + "{" + k + "}"
			}
			for i := 1; i < len(h.counts); i++ {
				if h.bounds[i] < h.bounds[i-1] {
					addf(f.line, "histogram %s buckets not in ascending le order", where)
				}
				if h.counts[i] < h.counts[i-1] {
					addf(f.line, "histogram %s bucket counts not cumulative", where)
				}
			}
			if !h.hasInf {
				addf(f.line, "histogram %s missing le=\"+Inf\" bucket", where)
			}
			if !h.sum {
				addf(f.line, "histogram %s missing _sum", where)
			}
			if !h.count {
				addf(f.line, "histogram %s missing _count", where)
			} else if h.hasInf && h.inf != h.countV {
				addf(f.line, "histogram %s +Inf bucket (%g) != _count (%g)", where, h.inf, h.countV)
			}
		}
	}

	lines := strings.Split(string(data), "\n")
	for i, raw := range lines {
		lineNo := i + 1
		line := strings.TrimRight(raw, "\r")
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "#") {
			fields := strings.SplitN(line, " ", 4)
			if len(fields) < 3 || (fields[1] != "HELP" && fields[1] != "TYPE") {
				continue // free-form comment
			}
			name := fields[2]
			if !validName(name) {
				addf(lineNo, "invalid metric name %q in %s line", name, fields[1])
				continue
			}
			f := getFam(name)
			if f == nil {
				f = &famState{name: name, seen: make(map[string]bool),
					hists: make(map[string]*histSeries), line: lineNo}
				byName[name] = f
				fams = append(fams, f)
			} else if f.samples > 0 && f != cur {
				addf(lineNo, "metadata for %q appears after its samples ended", name)
			}
			if fields[1] == "HELP" {
				if f.help {
					addf(lineNo, "duplicate HELP for %q", name)
				}
				f.help = true
			} else {
				if f.typ != "" {
					addf(lineNo, "duplicate TYPE for %q", name)
				}
				if len(fields) < 4 {
					addf(lineNo, "TYPE line for %q missing a type", name)
					continue
				}
				typ := fields[3]
				switch typ {
				case "counter", "gauge", "histogram", "summary", "untyped":
				default:
					addf(lineNo, "unknown TYPE %q for %q", typ, name)
				}
				if typ == "counter" && !strings.HasSuffix(name, "_total") {
					addf(lineNo, "counter %q should end in _total", name)
				}
				f.typ = typ
			}
			if cur != f {
				finishHist(cur)
				cur = f
			}
			continue
		}

		name, labels, value, err := parseSampleLine(line)
		if err != nil {
			addf(lineNo, "%v", err)
			continue
		}
		base, suffix := name, ""
		if cur != nil && cur.typ == "histogram" {
			for _, sfx := range []string{"_bucket", "_sum", "_count"} {
				if name == cur.name+sfx {
					base, suffix = cur.name, sfx
					break
				}
			}
		}
		f := getFam(base)
		if f == nil || f != cur {
			addf(lineNo, "sample %q has no preceding HELP/TYPE for its family", name)
			continue
		}
		if f.typ == "histogram" && suffix == "" {
			addf(lineNo, "histogram family %q has bare sample %q", f.name, name)
			continue
		}
		if !f.help {
			addf(lineNo, "family %q has samples but no HELP", f.name)
			f.help = true // report once
		}
		f.samples++

		var sigParts, baseParts []string
		var le string
		for _, l := range labels {
			if !validName(l.name) {
				addf(lineNo, "invalid label name %q on %q", l.name, name)
			}
			part := l.name + "=" + strconv.Quote(l.value)
			sigParts = append(sigParts, part)
			if l.name == "le" && suffix == "_bucket" {
				le = l.value
			} else {
				baseParts = append(baseParts, part)
			}
		}
		sig := suffix + "|" + strings.Join(sigParts, ",")
		if f.seen[sig] {
			addf(lineNo, "duplicate series %s%s{%s}", base, suffix, strings.Join(sigParts, ","))
		}
		f.seen[sig] = true

		if f.typ == "histogram" {
			baseSig := strings.Join(baseParts, ",")
			h := f.hists[baseSig]
			if h == nil {
				h = &histSeries{}
				f.hists[baseSig] = h
			}
			switch suffix {
			case "_bucket":
				if le == "" {
					addf(lineNo, "histogram bucket %q missing le label", name)
				} else if le == "+Inf" {
					h.hasInf = true
					h.inf = value
				} else {
					b, err := strconv.ParseFloat(le, 64)
					if err != nil || math.IsNaN(b) {
						addf(lineNo, "histogram bucket %q has unparsable le=%q", name, le)
					} else {
						h.bounds = append(h.bounds, b)
						h.counts = append(h.counts, value)
					}
				}
			case "_sum":
				h.sum = true
			case "_count":
				h.count = true
				h.countV = value
			}
		}
	}
	finishHist(cur)

	for _, f := range fams {
		if f.samples == 0 && f.typ != "histogram" {
			continue // metadata without samples is legal
		}
		if f.typ == "" {
			probs = append(probs, fmt.Sprintf("family %q has no TYPE line", f.name))
		}
	}
	return probs
}

// label is one parsed name="value" pair of a sample line.
type label struct{ name, value string }

// nameRE matches a legal metric or label name. It is written apart from
// the registry's own check so the linter does not share its bugs.
var nameRE = regexp.MustCompile(`^[a-zA-Z_:][a-zA-Z0-9_:]*$`)

func validName(s string) bool { return nameRE.MatchString(s) }

// parseSampleLine splits `name{labels} value [timestamp]` handling
// escaped quotes inside label values.
func parseSampleLine(line string) (name string, labels []label, value float64, err error) {
	rest := line
	i := strings.IndexAny(rest, "{ ")
	if i < 0 {
		return "", nil, 0, fmt.Errorf("malformed sample line %q", line)
	}
	name = rest[:i]
	if !validName(name) {
		return "", nil, 0, fmt.Errorf("invalid metric name %q", name)
	}
	if rest[i] == '{' {
		rest = rest[i+1:]
		for {
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, "}") {
				rest = rest[1:]
				break
			}
			eq := strings.Index(rest, "=")
			if eq < 0 {
				return "", nil, 0, fmt.Errorf("malformed labels in %q", line)
			}
			ln := strings.TrimSpace(rest[:eq])
			rest = rest[eq+1:]
			if !strings.HasPrefix(rest, `"`) {
				return "", nil, 0, fmt.Errorf("unquoted label value in %q", line)
			}
			rest = rest[1:]
			var val strings.Builder
			closed := false
			for j := 0; j < len(rest); j++ {
				c := rest[j]
				if c == '\\' && j+1 < len(rest) {
					j++
					switch rest[j] {
					case 'n':
						val.WriteByte('\n')
					case '\\', '"':
						val.WriteByte(rest[j])
					default:
						val.WriteByte('\\')
						val.WriteByte(rest[j])
					}
					continue
				}
				if c == '"' {
					rest = rest[j+1:]
					closed = true
					break
				}
				val.WriteByte(c)
			}
			if !closed {
				return "", nil, 0, fmt.Errorf("unterminated label value in %q", line)
			}
			labels = append(labels, label{name: ln, value: val.String()})
			rest = strings.TrimLeft(rest, " \t")
			if strings.HasPrefix(rest, ",") {
				rest = rest[1:]
			}
		}
	} else {
		rest = rest[i:]
	}
	fields := strings.Fields(rest)
	if len(fields) < 1 || len(fields) > 2 {
		return "", nil, 0, fmt.Errorf("malformed value in %q", line)
	}
	value, err = strconv.ParseFloat(fields[0], 64)
	if err != nil {
		return "", nil, 0, fmt.Errorf("unparsable value %q in %q", fields[0], line)
	}
	return name, labels, value, nil
}
