package main

import (
	"bytes"
	"strings"
	"testing"

	"regpromo/internal/bench"
	"regpromo/internal/obs"
)

// TestTablesRunCertifier: `rpbench -certify` must re-prove every
// promotion certificate on the table path too, not only with -json.
func TestTablesRunCertifier(t *testing.T) {
	reg := obs.EnableMetrics()
	defer obs.DisableMetrics()
	var out bytes.Buffer
	if err := runFigures(&out, bench.Options{Programs: []string{"mlink"}, Certify: true}, 5, false); err != nil {
		t.Fatal(err)
	}
	regions, proved := reg.Counter("certify.regions").Value(), reg.Counter("certify.proved").Value()
	if regions == 0 || proved != regions {
		t.Fatalf("certifier verified %d regions (%d proved); want every promoted region of mlink proved", regions, proved)
	}
	if !strings.HasPrefix(out.String(), "Figure 5: Total Operations") {
		t.Fatalf("table output:\n%s", out.String())
	}
}
