package platform

import (
	"bytes"
	"os"
	"regexp"
	"sort"
	"strings"
	"testing"

	"dynacrowd/internal/obs"
)

// documentedMetrics parses the metric catalog tables of
// docs/OBSERVABILITY.md into name → type. A row's first cell may list
// several metrics ("a / b") and carry label sets, which are dropped.
func documentedMetrics(t *testing.T) map[string]string {
	t.Helper()
	raw, err := os.ReadFile("../../docs/OBSERVABILITY.md")
	if err != nil {
		t.Fatal(err)
	}
	doc := string(raw)
	start := strings.Index(doc, "## Metric catalog")
	if start < 0 {
		t.Fatal("docs/OBSERVABILITY.md has no Metric catalog section")
	}
	doc = doc[start+len("## Metric catalog"):]
	if end := strings.Index(doc, "\n## "); end >= 0 {
		doc = doc[:end]
	}
	name := regexp.MustCompile("`([a-z0-9_]+)")
	out := make(map[string]string)
	for _, line := range strings.Split(doc, "\n") {
		if !strings.HasPrefix(line, "| `") {
			continue
		}
		// Escaped pipes inside label sets have no surrounding spaces.
		cells := strings.Split(line, " | ")
		if len(cells) < 3 {
			t.Fatalf("catalog row without a type column: %q", line)
		}
		for _, m := range name.FindAllStringSubmatch(cells[0], -1) {
			out["dynacrowd_"+m[1]] = strings.TrimSpace(cells[1])
		}
	}
	if len(out) == 0 {
		t.Fatal("no metrics parsed from the catalog")
	}
	return out
}

// registeredMetrics returns the metric families reg exposes, name → type.
func registeredMetrics(t *testing.T, reg *obs.Registry, into map[string]string) {
	t.Helper()
	var buf bytes.Buffer
	if err := reg.WritePrometheus(&buf); err != nil {
		t.Fatal(err)
	}
	for _, line := range strings.Split(buf.String(), "\n") {
		if f := strings.Fields(line); len(f) == 4 && f[0] == "#" && f[1] == "TYPE" {
			into[f[2]] = f[3]
		}
	}
}

// TestObservabilityCatalog checks docs/OBSERVABILITY.md against what a
// running system registers: a platform server with observability on,
// once unbudgeted and once budgeted. Every documented metric must be
// registered with its documented type, and every registered metric
// documented.
func TestObservabilityCatalog(t *testing.T) {
	registered := make(map[string]string)
	for _, cfg := range []Config{
		{Slots: 4, Value: 30},
		{Slots: 4, Value: 30, Budget: 16},
	} {
		o, err := obs.New(obs.Options{})
		if err != nil {
			t.Fatal(err)
		}
		cfg.Obs = o
		s := newTestServer(t, cfg)
		registeredMetrics(t, o.Registry, registered)
		s.Close()
	}

	documented := documentedMetrics(t)
	var missing, undocumented []string
	for name, typ := range documented {
		got, ok := registered[name]
		switch {
		case !ok:
			missing = append(missing, name)
		case got != typ:
			t.Errorf("%s is documented as a %s but registered as a %s", name, typ, got)
		}
	}
	for name := range registered {
		if _, ok := documented[name]; !ok {
			undocumented = append(undocumented, name)
		}
	}
	sort.Strings(missing)
	sort.Strings(undocumented)
	if len(missing) > 0 {
		t.Errorf("documented but never registered: %v", missing)
	}
	if len(undocumented) > 0 {
		t.Errorf("registered but missing from docs/OBSERVABILITY.md: %v", undocumented)
	}
}
