package obs

// Tests for the federation merger and the exposition conformance lint it
// shares with the server scrape test and the slj-promlint command.

import (
	"bytes"
	"errors"
	"strings"
	"testing"
)

// nodeExposition renders a small per-node scrape through the real writer,
// so merge inputs obey the same grammar production code emits.
func nodeExposition(t *testing.T, jobs float64, latencies []float64) []byte {
	t.Helper()
	var buf bytes.Buffer
	p := NewPromWriter(&buf)
	p.Counter("slj_jobs_submitted_total", "Jobs accepted into the queue.", jobs)
	p.Gauge("slj_jobs_queue_depth", "Jobs currently waiting in the queue.", 0)
	reg := NewRegistry()
	h := reg.Histogram("slj_job_run_seconds", "Job run time.", DefBuckets)
	for _, l := range latencies {
		h.Observe(l)
	}
	reg.WritePrometheus(p)
	if err := p.Err(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMergeExpositionsInjectsNodeLabels(t *testing.T) {
	merged, err := MergeExpositions([]ScrapedNode{
		{Node: "http://b:8080", Exposition: nodeExposition(t, 3, []float64{0.2})},
		{Node: "http://a:8080", Exposition: nodeExposition(t, 5, []float64{0.1, 0.9})},
	})
	if err != nil {
		t.Fatal(err)
	}

	// The merged scrape must itself pass the conformance lint, with the
	// fleet bookkeeping families present.
	res := LintExposition(merged, []string{
		"slj_fleet_members", "slj_fleet_scrape_ok",
		"slj_jobs_submitted_total", "slj_job_run_seconds",
	})
	if len(res.Issues) != 0 {
		t.Fatalf("merged exposition fails lint:\n%s\n--- scrape ---\n%s",
			strings.Join(res.Issues, "\n"), merged)
	}

	// Every non-fleet sample carries its origin node, and the per-node
	// values survive the merge unchanged.
	byNode := map[string]float64{}
	for _, s := range res.Samples {
		switch s.Name {
		case "slj_fleet_members":
			if s.Value != 2 {
				t.Errorf("slj_fleet_members = %v, want 2", s.Value)
			}
		case "slj_fleet_scrape_ok":
			if s.Value != 1 {
				t.Errorf("scrape_ok[%s] = %v, want 1", s.Labels["node"], s.Value)
			}
		default:
			if s.Labels["node"] == "" {
				t.Errorf("sample %s has no node label: %v", s.Name, s.Labels)
			}
			if s.Name == "slj_jobs_submitted_total" {
				byNode[s.Labels["node"]] = s.Value
			}
		}
	}
	if byNode["http://a:8080"] != 5 || byNode["http://b:8080"] != 3 {
		t.Errorf("per-node submitted counters %v, want a=5 b=3", byNode)
	}

	// Histogram series stay disjoint per node: both nodes' _count present.
	counts := 0
	for _, s := range res.Samples {
		if s.Name == "slj_job_run_seconds_count" {
			counts++
		}
	}
	if counts != 2 {
		t.Errorf("%d slj_job_run_seconds_count series, want one per node", counts)
	}
}

func TestMergeExpositionsDeterministicOrder(t *testing.T) {
	nodes := []ScrapedNode{
		{Node: "http://b:8080", Exposition: nodeExposition(t, 1, nil)},
		{Node: "http://a:8080", Exposition: nodeExposition(t, 2, nil)},
	}
	first, err := MergeExpositions(nodes)
	if err != nil {
		t.Fatal(err)
	}
	// Reversed input order must render byte-identical output: nodes are
	// visited sorted by name.
	second, err := MergeExpositions([]ScrapedNode{nodes[1], nodes[0]})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(first, second) {
		t.Error("merged output depends on input order")
	}
}

func TestMergeExpositionsFailedScrape(t *testing.T) {
	merged, err := MergeExpositions([]ScrapedNode{
		{Node: "http://ok:8080", Exposition: nodeExposition(t, 1, nil)},
		{Node: "http://down:8080", Err: errors.New("connection refused")},
		{Node: "http://garbled:8080", Exposition: []byte("not a scrape at all {{{")},
	})
	if err != nil {
		t.Fatal(err)
	}
	res := LintExposition(merged, nil)
	if len(res.Issues) != 0 {
		t.Fatalf("merged exposition fails lint:\n%s", strings.Join(res.Issues, "\n"))
	}
	ok := map[string]float64{}
	for _, s := range res.Samples {
		if s.Name == "slj_fleet_scrape_ok" {
			ok[s.Labels["node"]] = s.Value
		}
		if s.Labels["node"] == "http://down:8080" && s.Name != "slj_fleet_scrape_ok" {
			t.Errorf("failed node contributed sample %s", s.Name)
		}
	}
	want := map[string]float64{"http://ok:8080": 1, "http://down:8080": 0, "http://garbled:8080": 0}
	for node, v := range want {
		if ok[node] != v {
			t.Errorf("scrape_ok[%s] = %v, want %v", node, ok[node], v)
		}
	}
}

// TestMergeExpositionsKeepsHelpEscapes checks that a member's HELP text,
// escaped once on the wire, is federated as it came and not escaped again.
func TestMergeExpositionsKeepsHelpEscapes(t *testing.T) {
	var member bytes.Buffer
	NewPromWriter(&member).Counter("slj_things_total", "line one\nback\\slash", 1)
	const help = `# HELP slj_things_total line one\nback\\slash`
	if !strings.Contains(member.String(), help+"\n") {
		t.Fatalf("member exposition lacks %q:\n%s", help, member.String())
	}
	merged, err := MergeExpositions([]ScrapedNode{{Node: "http://a:8080", Exposition: member.Bytes()}})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(merged), help+"\n") {
		t.Errorf("federated HELP is not the member's %q:\n%s", help, merged)
	}
}

func TestMergeExpositionsTypeMismatch(t *testing.T) {
	a := []byte("# HELP slj_thing A thing.\n# TYPE slj_thing gauge\nslj_thing 1\n")
	b := []byte("# HELP slj_thing A thing.\n# TYPE slj_thing counter\nslj_thing 2\n")
	merged, err := MergeExpositions([]ScrapedNode{
		{Node: "http://a:8080", Exposition: a},
		{Node: "http://b:8080", Exposition: b},
	})
	if err != nil {
		t.Fatal(err)
	}
	// The mismatching member is folded like a failed scrape, not merged.
	res := LintExposition(merged, nil)
	for _, s := range res.Samples {
		if s.Name == "slj_fleet_scrape_ok" && s.Labels["node"] == "http://b:8080" && s.Value != 0 {
			t.Error("type-mismatched node still reported as scraped ok")
		}
		if s.Name == "slj_thing" && s.Labels["node"] == "http://b:8080" {
			t.Error("type-mismatched node's sample leaked into the merge")
		}
	}
}

func TestLintExpositionCatchesViolations(t *testing.T) {
	cases := []struct {
		name, raw, want string
	}{
		{"counter suffix", "# HELP bad_counter x\n# TYPE bad_counter counter\nbad_counter 1\n", "not named *_total"},
		{"duplicate type", "# HELP a_total x\n# TYPE a_total counter\n# HELP a_total x\n# TYPE a_total counter\na_total 1\n", "duplicate"},
		{"sample before type", "orphan 1\n", "TYPE declaration"},
		{"malformed sample", "# HELP g x\n# TYPE g gauge\ng{unclosed 1\n", "malformed sample"},
		{"unknown type", "# HELP s x\n# TYPE s summary\ns 1\n", "unknown type"},
		{"non-monotone buckets", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 5\nh_bucket{le=\"1\"} 3\nh_bucket{le=\"+Inf\"} 5\nh_sum 1\nh_count 5\n", "not monotone"},
		{"inf bucket vs count", "# HELP h x\n# TYPE h histogram\n" +
			"h_bucket{le=\"0.1\"} 1\nh_bucket{le=\"+Inf\"} 2\nh_sum 1\nh_count 3\n", "!= count"},
		{"missing required", "# HELP g x\n# TYPE g gauge\ng 1\n", "missing from the scrape"},
		{"split family", "# HELP a x\n# TYPE a gauge\na{w=\"1\"} 1\n" +
			"# HELP b x\n# TYPE b gauge\nb 1\na{w=\"2\"} 2\n", "not contiguous"},
	}
	for _, tc := range cases {
		var required []string
		if tc.name == "missing required" {
			required = []string{"slj_not_there"}
		}
		res := LintExposition([]byte(tc.raw), required)
		found := false
		for _, issue := range res.Issues {
			if strings.Contains(issue, tc.want) {
				found = true
			}
		}
		if !found {
			t.Errorf("%s: issues %v do not mention %q", tc.name, res.Issues, tc.want)
		}
	}
}

func TestLintExpositionCleanScrape(t *testing.T) {
	res := LintExposition(nodeExposition(t, 7, []float64{0.5}), []string{"slj_jobs_submitted_total"})
	if len(res.Issues) != 0 {
		t.Fatalf("clean scrape reported issues: %v", res.Issues)
	}
	if res.Types["slj_jobs_submitted_total"] != "counter" || res.Types["slj_job_run_seconds"] != "histogram" {
		t.Errorf("types = %v", res.Types)
	}
	if got := res.FamilyOf("slj_job_run_seconds_bucket"); got != "slj_job_run_seconds" {
		t.Errorf("FamilyOf(bucket) = %q", got)
	}
}
