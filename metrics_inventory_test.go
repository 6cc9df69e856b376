package mxn

import (
	"os"
	"regexp"
	"slices"
	"strings"
	"testing"

	"mxn/internal/obs"

	// Every package that registers instruments in obs.Default() at init.
	_ "mxn/internal/bufpool"
	_ "mxn/internal/comm"
	_ "mxn/internal/core"
	_ "mxn/internal/prmi"
	_ "mxn/internal/redist"
	_ "mxn/internal/schedule"
	_ "mxn/internal/session"
	_ "mxn/internal/transport"
	_ "mxn/internal/wire"
)

// TestMetricInventoryMatchesRegistry holds DESIGN.md's "Metric inventory"
// table to the instruments registered in obs.Default(), both ways: every
// registered name is in the table, and every name in the table is
// registered. A row is a backticked prefix followed by one backticked
// name per instrument.
func TestMetricInventoryMatchesRegistry(t *testing.T) {
	doc, err := os.ReadFile("DESIGN.md")
	if err != nil {
		t.Fatal(err)
	}
	_, section, ok := strings.Cut(string(doc), "\n### Metric inventory\n")
	if !ok {
		t.Fatal(`DESIGN.md has no "Metric inventory" section`)
	}
	section, _, _ = strings.Cut(section, "\n### ")
	ticked := regexp.MustCompile("`([^`]+)`")
	documented := map[string]bool{}
	for _, row := range strings.Split(section, "\n") {
		cells := strings.Split(row, "|")
		if len(cells) < 4 {
			continue
		}
		prefix := ticked.FindStringSubmatch(cells[1])
		if prefix == nil {
			continue
		}
		for _, name := range ticked.FindAllStringSubmatch(cells[2], -1) {
			documented[prefix[1]+name[1]] = true
		}
	}

	snap := obs.Default().Snapshot()
	registered := map[string]bool{}
	for name := range snap.Counters {
		registered[name] = true
	}
	for name := range snap.Gauges {
		registered[name] = true
	}
	for name := range snap.Histograms {
		registered[name] = true
	}

	var undocumented, unregistered []string
	for name := range registered {
		if !documented[name] {
			undocumented = append(undocumented, name)
		}
	}
	for name := range documented {
		if !registered[name] {
			unregistered = append(unregistered, name)
		}
	}
	slices.Sort(undocumented)
	slices.Sort(unregistered)
	if len(undocumented) > 0 {
		t.Errorf("registered but missing from DESIGN.md's metric inventory: %v", undocumented)
	}
	if len(unregistered) > 0 {
		t.Errorf("in DESIGN.md's metric inventory but never registered: %v", unregistered)
	}
}
