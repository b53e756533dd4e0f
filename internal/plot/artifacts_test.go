package plot

import (
	"testing"

	"ddio/internal/exp"
)

// TestArtifactNames pins every sweep artifact's served format, CLI file
// name and content type: all three are user-facing, and the CLI files
// and daemon formats are byte-identical only because both come from
// this one table.
func TestArtifactNames(t *testing.T) {
	spec := &exp.SweepSpec{Name: "fig5-paper", ID: "fig5"}
	want := []struct{ format, file, mime string }{
		{"text", "", "text/plain; charset=utf-8"},
		{"tablecsv", "fig5.csv", "text/csv; charset=utf-8"},
		{"csv", "fig5-paper-long.csv", "text/csv; charset=utf-8"},
		{"json", "fig5-paper.json", "application/json"},
		{"svg", "fig5-paper.svg", "image/svg+xml"},
		{"timesvg", "fig5-paper-time.svg", "image/svg+xml"},
	}
	if len(Artifacts) != len(want) {
		t.Fatalf("%d artifacts, want %d", len(Artifacts), len(want))
	}
	for i, w := range want {
		a := &Artifacts[i]
		if a.Format != w.format || a.File(spec) != w.file || a.MIME != w.mime {
			t.Errorf("artifact %d: %q %q %q, want %q %q %q",
				i, a.Format, a.File(spec), a.MIME, w.format, w.file, w.mime)
		}
		if got, ok := LookupArtifact(w.format); !ok || got != a {
			t.Errorf("LookupArtifact(%q) = %v, %v", w.format, got, ok)
		}
	}
	if _, ok := LookupArtifact("pdf"); ok {
		t.Error("LookupArtifact accepted an unknown format")
	}
	// The daemon looks up the format on every request.
	if n := testing.AllocsPerRun(100, func() { LookupArtifact("timesvg") }); n != 0 {
		t.Errorf("LookupArtifact allocates %v times per call", n)
	}
}

// TestArtifactRender: every artifact renders a plain sweep except the
// time-domain figure, which such a sweep does not have.
func TestArtifactRender(t *testing.T) {
	res := sampleSweep()
	for _, a := range Artifacts {
		data, err := a.Render(res)
		if err != nil {
			t.Fatalf("%s: %v", a.Format, err)
		}
		if (data == nil) != (a.Format == "timesvg") {
			t.Errorf("%s rendered %d bytes", a.Format, len(data))
		}
	}
}
