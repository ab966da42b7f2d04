// Metrics federation: parse each fleet member's Prometheus text
// exposition and merge the families into one cluster-wide scrape, every
// sample re-labelled with its origin node. The merged output obeys the
// same grammar the per-node writer promises (HELP/TYPE once per family,
// before its samples), so the conformance lint applies to both views;
// bucket monotonicity survives the merge because the injected node label
// keeps every member's histogram series disjoint.
package obs

import (
	"bytes"
	"fmt"
	"regexp"
	"sort"
	"strings"
)

// ScrapedNode is one member's exposition as the federation merger
// consumes it. A node whose scrape failed carries Err and contributes
// only its slj_fleet_scrape_ok{node=...} 0 sample.
type ScrapedNode struct {
	// Node is the member's identity, typically its base URL; it becomes
	// the sample's node label value.
	Node string
	// Exposition is the raw /v1/metrics?format=prometheus body.
	Exposition []byte
	// Err records a failed scrape (Exposition is then ignored).
	Err error
}

// promFamily is one merged family: the TYPE/HELP header plus the samples
// of every node, in node order. help is the first member's HELP line after
// the family name as it came off the wire: already escaped, and with its
// separating space when it has one, so it is written back unchanged.
type promFamily struct {
	name, typ, help string
	samples         []promNodeSample
}

// promNodeSample is one member sample awaiting re-emission with the node
// label injected.
type promNodeSample struct {
	node   string
	name   string // full sample name, including _bucket/_sum/_count
	labels string // raw label body without braces, possibly empty
	value  string
}

var federateSampleRE = regexp.MustCompile(`^([a-zA-Z_:][a-zA-Z0-9_:]*)(?:\{(.*)\})? (\S+)$`)

// MergeExpositions merges the members' scrapes into one exposition. The
// output is deterministic for a given input: nodes are visited sorted by
// name, families keep first-seen order across that visit. A member whose
// exposition fails to parse is reported like a failed scrape. Fleet-level
// bookkeeping families (member count, per-node scrape health) lead the
// output.
func MergeExpositions(nodes []ScrapedNode) ([]byte, error) {
	sorted := append([]ScrapedNode(nil), nodes...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].Node < sorted[j].Node })

	var order []string
	families := map[string]*promFamily{}
	scrapeOK := map[string]bool{}
	for _, n := range sorted {
		if n.Err != nil {
			scrapeOK[n.Node] = false
			continue
		}
		if err := mergeOne(n, &order, families); err != nil {
			scrapeOK[n.Node] = false
			continue
		}
		scrapeOK[n.Node] = true
	}

	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Gauge("slj_fleet_members", "Fleet members included in this federated scrape.", float64(len(sorted)))
	for _, n := range sorted {
		ok := 0.0
		if scrapeOK[n.Node] {
			ok = 1
		}
		p.Gauge("slj_fleet_scrape_ok", "Whether the member's last metrics scrape succeeded.", ok, "node", n.Node)
	}
	for _, name := range order {
		fam := families[name]
		if fam.typ == "" {
			// HELP without a TYPE anywhere: no sample can attach to the
			// family (mergeOne needs a TYPE first), and a header with an
			// empty type is not valid exposition.
			continue
		}
		fmt.Fprintf(&buf, "# HELP %s%s\n# TYPE %s %s\n", fam.name, fam.help, fam.name, fam.typ)
		for _, s := range fam.samples {
			buf.WriteString(s.name)
			buf.WriteString(`{node="`)
			buf.WriteString(escapeLabel(s.node))
			buf.WriteByte('"')
			if s.labels != "" {
				buf.WriteByte(',')
				buf.WriteString(s.labels)
			}
			buf.WriteString("} ")
			buf.WriteString(s.value)
			buf.WriteByte('\n')
		}
	}
	if err := p.Err(); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// mergeOne folds one member's exposition into the family map. Samples are
// attached to the family of the most recent TYPE declaration, which is
// how the text format orders a scrape; a sample before any declaration is
// a parse error. A family whose declared type disagrees with an earlier
// member's is an error too — members run the same binary, so a mismatch
// means the scrape is not what it claims to be.
func mergeOne(n ScrapedNode, order *[]string, families map[string]*promFamily) error {
	var current *promFamily
	for i, line := range strings.Split(string(n.Exposition), "\n") {
		if line == "" {
			continue
		}
		if strings.HasPrefix(line, "# HELP ") {
			rest := strings.TrimPrefix(line, "# HELP ")
			name, _, _ := strings.Cut(rest, " ")
			help := rest[len(name):]
			fam, ok := families[name]
			if !ok {
				fam = &promFamily{name: name, help: help}
				families[name] = fam
				*order = append(*order, name)
			}
			continue
		}
		if strings.HasPrefix(line, "# TYPE ") {
			parts := strings.Fields(strings.TrimPrefix(line, "# TYPE "))
			if len(parts) != 2 {
				return fmt.Errorf("node %s line %d: malformed TYPE %q", n.Node, i+1, line)
			}
			name, typ := parts[0], parts[1]
			fam, ok := families[name]
			if !ok {
				fam = &promFamily{name: name}
				families[name] = fam
				*order = append(*order, name)
			}
			if fam.typ == "" {
				fam.typ = typ
			} else if fam.typ != typ {
				return fmt.Errorf("node %s: family %s declared %s, merged as %s", n.Node, name, typ, fam.typ)
			}
			current = fam
			continue
		}
		if strings.HasPrefix(line, "#") {
			continue
		}
		m := federateSampleRE.FindStringSubmatch(line)
		if m == nil {
			return fmt.Errorf("node %s line %d: malformed sample %q", n.Node, i+1, line)
		}
		if current == nil || !sampleBelongs(current, m[1]) {
			return fmt.Errorf("node %s line %d: sample %s outside its family block", n.Node, i+1, m[1])
		}
		current.samples = append(current.samples, promNodeSample{
			node: n.Node, name: m[1], labels: m[2], value: m[3],
		})
	}
	return nil
}

// sampleBelongs reports whether a sample name is part of the family: the
// family name itself, or the histogram suffixes on it.
func sampleBelongs(fam *promFamily, sampleName string) bool {
	if sampleName == fam.name {
		return true
	}
	if fam.typ != "histogram" {
		return false
	}
	for _, suf := range []string{"_bucket", "_sum", "_count"} {
		if sampleName == fam.name+suf {
			return true
		}
	}
	return false
}
