package harness

import (
	"os"
	"path/filepath"

	"hierclust/internal/trace"
)

// WriteArtifacts stores the table CSV in dir and, for the heatmap
// experiments (fig5a/fig5b), dumps the full-resolution communication matrix
// of the traced run their tables summarize (encodedRig) as PGM and CSV —
// the inputs for external plotting of the paper's Figures 5a/5b. With
// cfg.MaxRanks set it additionally renders the synthetic-scale heatmap
// through the sparse downsampler (<id>_synthetic.pgm plus a triplet CSV) —
// no simulated MPI run at any rank count.
func WriteArtifacts(dir string, table *Table, cfg Config, id string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	if err := os.WriteFile(filepath.Join(dir, id+".csv"), []byte(table.CSV()), 0o644); err != nil {
		return err
	}
	if id != "fig5a" && id != "fig5b" {
		return nil
	}
	if cfg.MaxRanks > 0 {
		if err := writeSyntheticHeatmap(dir, cfg, id); err != nil {
			return err
		}
	}
	// The run the fig5a/fig5b tables describe, at full resolution.
	cfg.normalize()
	m, err := encodedRig(cfg)
	if err != nil {
		return err
	}
	if id == "fig5b" {
		zoomN := min(4*(cfg.ProcsPerNode+1), m.Ranks())
		if m, err = m.Submatrix(0, zoomN); err != nil {
			return err
		}
	}
	// The dense-grid CSV is the plotting input: ranks² cells, written once.
	if err := os.WriteFile(filepath.Join(dir, id+"_matrix.csv"), []byte(m.GridCSV()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+".pgm"), []byte(m.PGM(m.Ranks())), 0o644)
}

// writeSyntheticHeatmap renders the synthetic-axis (cfg.MaxRanks) stencil
// trace as a downsampled PGM and sparse triplet CSV, entirely on the CSR
// path — the artifact equivalent of the scaling experiment's synthetic
// rows. fig5b keeps its meaning as the zoom on the first four nodes.
func writeSyntheticHeatmap(dir string, cfg Config, id string) error {
	cfg.normalize()
	// A 2-D stencil one node wide, materialized: a heatmap needs cells.
	m, err := trace.Synthetic(cfg.MaxRanks, trace.SyntheticOptions{Pattern: trace.Stencil2D, Width: cfg.ProcsPerNode})
	if err != nil {
		return err
	}
	if id == "fig5b" {
		zoomN := 4 * cfg.ProcsPerNode
		if zoomN > m.Ranks() {
			zoomN = m.Ranks()
		}
		if m, err = m.Submatrix(0, zoomN); err != nil {
			return err
		}
	}
	if err := os.WriteFile(filepath.Join(dir, id+"_synthetic.csv"), []byte(m.CSV()), 0o644); err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, id+"_synthetic.pgm"), []byte(m.PGM(1024)), 0o644)
}
