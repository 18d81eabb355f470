// Package cli holds the flag surface and export plumbing shared by the
// satbc / satbvm / satbbench commands: the program a command reads, the
// -trace / -metrics observability flags, the versioned JSON document
// writer, and atomic file output.
package cli

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"satbelim/internal/obs"
	"satbelim/internal/pipeline"
	"satbelim/internal/report"
	"satbelim/internal/workloads"
)

// Source is the program a compiling command works on: the built-in
// workload it names, or else its one file argument, named after the file
// without ".mj". With neither it prints the usage and exits 2.
func Source(tool, workload string) (name, source string, err error) {
	switch {
	case workload != "":
		w, err := workloads.Get(workload)
		if err != nil {
			return "", "", err
		}
		return w.Name, w.Source, nil
	case flag.NArg() == 1:
		data, err := os.ReadFile(flag.Arg(0))
		return strings.TrimSuffix(filepath.Base(flag.Arg(0)), ".mj"), string(data), err
	}
	fmt.Fprintf(os.Stderr, "usage: %s [flags] file.mj | %s [flags] -workload NAME\n", tool, tool)
	flag.PrintDefaults()
	os.Exit(2)
	return "", "", nil
}

// Obs carries the observability flags common to every command. Zero
// values mean "off": no collector is installed and every hook stays on
// its zero-overhead disabled path.
type Obs struct {
	// TracePath receives a Chrome trace_event JSON file (-trace).
	TracePath string
	// MetricsPath receives a report.Document with the metrics section
	// (-metrics).
	MetricsPath string
	// Summary prints the human-readable observability table to stderr
	// after the run; it is implied by either path being set.
	Summary bool

	collector *obs.Collector
}

// RegisterFlags installs -trace and -metrics on the default flag set.
func (o *Obs) RegisterFlags() {
	flag.StringVar(&o.TracePath, "trace", "",
		"write a Chrome trace_event JSON file (open in Perfetto or chrome://tracing)")
	flag.StringVar(&o.MetricsPath, "metrics", "",
		"write aggregated span/counter metrics as versioned JSON")
}

// Start enables the process-wide collector when any export was requested.
// Call it after flag.Parse and before any compile or run.
func (o *Obs) Start() {
	if o.TracePath != "" || o.MetricsPath != "" {
		o.collector = obs.Enable()
	}
}

// Enabled reports whether Start installed a collector.
func (o *Obs) Enabled() bool { return o.collector != nil }

// Finish stops collection and writes the requested export files. tool
// names the command in the metrics document. It is a no-op when Start
// never enabled collection.
func (o *Obs) Finish(tool string) error {
	if o.collector == nil {
		return nil
	}
	c := o.collector
	o.collector = nil
	obs.Disable()

	if o.TracePath != "" {
		data, err := c.ChromeTrace()
		if err != nil {
			return fmt.Errorf("encode trace: %w", err)
		}
		if err := WriteFileAtomic(o.TracePath, data); err != nil {
			return fmt.Errorf("write trace: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s (load in https://ui.perfetto.dev)\n", tool, o.TracePath)
	}

	m := c.Metrics()
	if o.MetricsPath != "" {
		doc := report.NewDocument(tool)
		doc.Metrics = &m
		cs := pipeline.DefaultCache.Stats()
		doc.BuildCache = &cs
		if err := WriteDocument(o.MetricsPath, doc); err != nil {
			return fmt.Errorf("write metrics: %w", err)
		}
		fmt.Fprintf(os.Stderr, "%s: wrote %s\n", tool, o.MetricsPath)
	}

	if o.Summary || o.TracePath != "" || o.MetricsPath != "" {
		fmt.Fprint(os.Stderr, report.FormatObsSummary(&m))
	}
	return nil
}

// WriteDocument marshals a report.Document (indented, trailing newline)
// and writes it atomically.
func WriteDocument(path string, doc *report.Document) error {
	data, err := json.MarshalIndent(doc, "", "  ")
	if err != nil {
		return err
	}
	return WriteFileAtomic(path, append(data, '\n'))
}

// WriteFileAtomic writes data to path via a temp file in the same
// directory plus rename, so readers never observe a partial document and
// an interrupted run leaves the previous file intact.
func WriteFileAtomic(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, filepath.Base(path)+".tmp*")
	if err != nil {
		return err
	}
	defer os.Remove(tmp.Name()) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return err
	}
	if err := tmp.Close(); err != nil {
		return err
	}
	if err := os.Chmod(tmp.Name(), 0o644); err != nil {
		return err
	}
	return os.Rename(tmp.Name(), path)
}
