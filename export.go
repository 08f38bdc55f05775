package iotlan

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
)

// Export writes the study's datasets to dir as JSON, mirroring the paper's
// artifact release: active-scan results, vulnerability findings, app
// exfiltration records, the instrumented API-access log, the crowdsourced
// corpus, honeypot events, and every experiment's headline metrics.
// Pipelines that have not run are skipped. Equivalent to ExportContext with
// a background context.
func (s *Study) Export(dir string) error {
	return s.ExportContext(context.Background(), dir)
}

// ExportContext is Export with cancellation: ctx is checked between files
// and between artifact computations; a cancelled context stops the export
// and returns an error naming the step that did not run. Which artifacts
// contribute metrics is driven by the registry — an artifact is included
// exactly when every pipeline in its Needs mask has already run, so Export
// never triggers a pipeline itself.
func (s *Study) ExportContext(ctx context.Context, dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return fmt.Errorf("iotlan: export: %w", err)
	}
	write := func(name string, v interface{}) error {
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("iotlan: export %s: %w", name, err)
		}
		data, err := json.MarshalIndent(v, "", "  ")
		if err != nil {
			return fmt.Errorf("iotlan: export %s: %w", name, err)
		}
		if err := os.WriteFile(filepath.Join(dir, name), append(data, '\n'), 0o644); err != nil {
			return fmt.Errorf("iotlan: export %s: %w", name, err)
		}
		return nil
	}

	if s.Lab != nil {
		type deviceRow struct {
			Name, Vendor, Model, Category, MAC, IP string
		}
		var rows []deviceRow
		for _, d := range s.Lab.Devices {
			rows = append(rows, deviceRow{
				Name: d.Profile.Name, Vendor: d.Profile.Vendor, Model: d.Profile.Model,
				Category: string(d.Profile.Category), MAC: d.MAC().String(), IP: d.IP().String(),
			})
		}
		if err := write("devices.json", rows); err != nil {
			return err
		}
	}
	if s.Scans != nil {
		if err := write("scans.json", s.Scans); err != nil {
			return err
		}
	}
	if s.Findings != nil {
		if err := write("findings.json", s.Findings); err != nil {
			return err
		}
	}
	if s.AppRun != nil {
		if err := write("exfiltration.json", s.AppRun.Records); err != nil {
			return err
		}
		if err := write("api_access.json", s.AppRun.APILog); err != nil {
			return err
		}
	}
	if s.Inspector != nil {
		if err := write("inspector.json", s.Inspector); err != nil {
			return err
		}
	}
	if s.Honeypot != nil {
		if err := write("honeypot.json", s.Honeypot.Events); err != nil {
			return err
		}
	}
	// Headline metrics from every registered artifact whose pipelines have
	// already run, in registry (paper) order.
	metrics := map[string]map[string]float64{}
	for _, a := range Artifacts() {
		if !s.ran(a.Needs) {
			continue
		}
		if err := ctx.Err(); err != nil {
			return fmt.Errorf("iotlan: export artifact %s: %w", a.Name, err)
		}
		r := a.Fn(s)
		metrics[r.ID] = r.Metrics
	}
	return write("metrics.json", metrics) // encoding/json sorts map keys
}
