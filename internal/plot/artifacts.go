package plot

// artifacts.go defines, once, every artifact an executed sweep leaves
// the program as. The figures CLI writes them as files (the text table
// to stdout) and the daemon serves them as ?format= responses, both by
// walking Artifacts, so a served body equals the CLI file by
// construction.

import (
	"fmt"

	"ddio/internal/exp"
)

// Artifact is one rendering of an executed sweep.
type Artifact struct {
	// Format is the daemon's ?format= name for the artifact.
	Format string
	// File returns the CLI's file name for the artifact of spec; "" means
	// the CLI writes it to stdout.
	File func(spec *exp.SweepSpec) string
	// MIME is the Content-Type of the served response.
	MIME string
	// Render returns the artifact's bytes, or nil when the sweep has no
	// such view (timesvg of a sweep with neither a faults template nor a
	// workload).
	Render func(res *exp.SweepResult) ([]byte, error)
}

// Artifacts lists every sweep artifact, in the order the CLI writes them.
var Artifacts = []Artifact{
	{"text", func(*exp.SweepSpec) string { return "" }, "text/plain; charset=utf-8",
		func(res *exp.SweepResult) ([]byte, error) {
			// The formatted table, a blank line, and the max-cv line.
			t := res.Table
			return []byte(t.Format() + "\n" + fmt.Sprintf("max cv %.3f\n\n", t.MaxCV())), nil
		}},
	{"tablecsv", func(s *exp.SweepSpec) string { return s.TableID() + ".csv" }, "text/csv; charset=utf-8",
		func(res *exp.SweepResult) ([]byte, error) { return []byte(res.Table.CSV()), nil }},
	{"csv", func(s *exp.SweepSpec) string { return s.Name + "-long.csv" }, "text/csv; charset=utf-8",
		func(res *exp.SweepResult) ([]byte, error) { return []byte(res.LongCSV()), nil }},
	{"json", func(s *exp.SweepSpec) string { return s.Name + ".json" }, "application/json",
		func(res *exp.SweepResult) ([]byte, error) { return res.JSON() }},
	{"svg", func(s *exp.SweepSpec) string { return s.Name + ".svg" }, "image/svg+xml",
		func(res *exp.SweepResult) ([]byte, error) { return []byte(SweepFigure(res)), nil }},
	{"timesvg", func(s *exp.SweepSpec) string { return s.Name + "-time.svg" }, "image/svg+xml",
		func(res *exp.SweepResult) ([]byte, error) {
			if svg := SweepTimeFigure(res); svg != "" {
				return []byte(svg), nil
			}
			return nil, nil
		}},
}

// LookupArtifact returns the artifact served as format.
func LookupArtifact(format string) (*Artifact, bool) {
	for i := range Artifacts {
		if Artifacts[i].Format == format {
			return &Artifacts[i], true
		}
	}
	return nil, false
}
