package obs

import (
	"bytes"
	"sort"
	"strings"
	"testing"
)

// FuzzParseTraceparent feeds arbitrary header values to the traceparent
// parser. It must never panic, and whatever it accepts must be a valid
// span context that survives its own encoding unchanged.
func FuzzParseTraceparent(f *testing.F) {
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-01")
	f.Add("00-0123456789abcdef0123456789abcdef-0123456789abcdef-")
	f.Fuzz(func(t *testing.T, s string) {
		sc, ok := ParseTraceparent(s)
		if !ok {
			if sc != (SpanContext{}) {
				t.Fatalf("rejected %q but returned %+v", s, sc)
			}
			return
		}
		if !sc.Valid() {
			t.Fatalf("accepted %q as invalid context %+v", s, sc)
		}
		again, ok := ParseTraceparent(sc.Traceparent())
		if !ok || again != sc {
			t.Fatalf("%q parsed to %+v, whose header %q parses to %+v (ok=%v)", s, sc, sc.Traceparent(), again, ok)
		}
	})
}

// FuzzMergeExpositions feeds two members' arbitrary scrape bodies to the
// federation merger. It must never panic, its output must depend only on
// the input (not on call or member order), when both members pass the
// conformance lint the merged scrape must pass it too, and a lone clean
// member's HELP lines (of families it declares a TYPE for) must pass
// through byte for byte.
func FuzzMergeExpositions(f *testing.F) {
	var gauges, counters, hists bytes.Buffer
	NewPromWriter(&gauges).Gauge("slj_jobs_queue_depth", "Jobs waiting.", 3, "pool", "a")
	NewPromWriter(&counters).Counter("slj_jobs_submitted_total", "Jobs submitted.\nSecond line.", 7)
	reg := NewRegistry()
	reg.Histogram("slj_job_run_seconds", "Run time.", []float64{0.1, 1}, "stage", "pose").Observe(0.5)
	reg.WritePrometheus(NewPromWriter(&hists))
	f.Add(gauges.Bytes(), counters.Bytes())
	f.Add(hists.Bytes(), hists.Bytes())
	f.Add(gauges.Bytes(), hists.Bytes())
	f.Fuzz(func(t *testing.T, a, b []byte) {
		nodes := []ScrapedNode{{Node: "http://a:1", Exposition: a}, {Node: "http://b:2", Exposition: b}}
		merged, err := MergeExpositions(nodes)
		if err != nil {
			t.Fatalf("merge: %v", err)
		}
		again, _ := MergeExpositions(nodes)
		swapped, _ := MergeExpositions([]ScrapedNode{nodes[1], nodes[0]})
		if !bytes.Equal(merged, again) || !bytes.Equal(merged, swapped) {
			t.Fatalf("merge is not a function of its input:\n%s\n---\n%s\n---\n%s", merged, again, swapped)
		}
		clean := true
		for _, n := range nodes {
			lint := LintExposition(n.Exposition, nil)
			if len(lint.Issues) != 0 {
				clean = false
				continue
			}
			lone, err := MergeExpositions([]ScrapedNode{n})
			if err != nil {
				t.Fatalf("merge: %v", err)
			}
			kept := map[string]bool{}
			for _, line := range strings.Split(string(lone), "\n") {
				kept[line] = true
			}
			for _, line := range strings.Split(string(n.Exposition), "\n") {
				name, _, _ := strings.Cut(strings.TrimPrefix(line, "# HELP "), " ")
				if strings.HasPrefix(line, "# HELP ") && lint.Types[name] != "" && !kept[line] {
					t.Fatalf("HELP line %q did not pass through:\n%s", line, lone)
				}
			}
		}
		if !clean {
			return
		}
		if res := LintExposition(merged, nil); len(res.Issues) != 0 {
			t.Fatalf("clean members merged into a scrape that fails the lint:\n%s\n%s", strings.Join(res.Issues, "\n"), merged)
		}
	})
}

// FuzzLintExposition feeds arbitrary scrape bodies, and one required
// family, to the conformance lint behind slj-promlint and the federation
// tests. It must never panic and must return a result for every input: a
// type table, the parsed samples, and the same issues on a second run,
// including a missing-family issue whenever the required family is not
// declared. The seed corpus lives in testdata/fuzz/FuzzLintExposition.
func FuzzLintExposition(f *testing.F) {
	var clean bytes.Buffer
	reg := NewRegistry()
	reg.Histogram("slj_job_run_seconds", "Run time.", []float64{0.1, 1}, "stage", "pose").Observe(0.5)
	reg.WritePrometheus(NewPromWriter(&clean))
	NewPromWriter(&clean).Counter("slj_jobs_submitted_total", "Jobs submitted.", 7)
	f.Add(clean.Bytes(), "slj_job_run_seconds")
	f.Add(clean.Bytes(), "slj_absent")
	f.Fuzz(func(t *testing.T, raw []byte, required string) {
		res := LintExposition(raw, []string{required})
		if res == nil || res.Types == nil {
			t.Fatalf("no result for %q", raw)
		}
		for _, s := range res.Samples {
			if !lintMetricRE.MatchString(s.Name) || s.Labels == nil {
				t.Fatalf("parsed a malformed sample %+v", s)
			}
		}
		if _, ok := res.Types[required]; !ok {
			want := "family " + required + " missing from the scrape"
			if len(res.Issues) == 0 || res.Issues[len(res.Issues)-1] != want {
				t.Fatalf("required family %q is not declared, issues %q lack %q", required, res.Issues, want)
			}
		}
		// Histogram series are checked in map order, so compare as sets.
		again := LintExposition(raw, []string{required})
		a, b := append([]string(nil), res.Issues...), append([]string(nil), again.Issues...)
		sort.Strings(a)
		sort.Strings(b)
		if strings.Join(a, "\n") != strings.Join(b, "\n") || len(res.Samples) != len(again.Samples) {
			t.Fatalf("lint is not a function of its input:\n%q\n%q", res.Issues, again.Issues)
		}
	})
}
