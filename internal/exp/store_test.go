package exp

import (
	"bytes"
	"testing"

	"ddio/internal/hpf"
	"ddio/internal/pfs"
)

// TestVerifiedRunsStoreNoPages: verified, fault-free TC read cells and
// DDIO write cells of the Fig. 3b configuration move only image bytes,
// so no disk stores a page. Once the machine closes, its disks hold no
// page and no file: a read returns zeros where the image was.
func TestVerifiedRunsStoreNoPages(t *testing.T) {
	cells := func(m Method, patterns []string) (out []Config) {
		for _, p := range patterns {
			cfg := DefaultConfig()
			cfg.FileBytes = MiB
			cfg.RecordSize = 8192
			cfg.Layout = pfs.RandomBlocks
			cfg.Method, cfg.Pattern = m, p
			out = append(out, cfg)
		}
		return out
	}
	cfgs := append(cells(TraditionalCaching, hpf.ReadPatterns()), cells(DiskDirected, hpf.WritePatterns())...)
	for _, cfg := range cfgs {
		var mc *machine
		stored := false
		r, err := run(cfg, func(m *machine) {
			mc = m
			for _, d := range m.disks {
				stored = stored || d.Stored(0, d.Spec.TotalSectors())
			}
		})
		if err != nil {
			t.Fatal(err)
		}
		if r.VerifyErrors != 0 || mc == nil {
			t.Fatalf("%v %s: %d verification errors, machine seen: %v", cfg.Method, cfg.Pattern, r.VerifyErrors, mc != nil)
		}
		if stored {
			t.Errorf("%v %s: a disk stores a page", cfg.Method, cfg.Pattern)
		}
		buf := make([]byte, cfg.BlockSize)
		for b := range len(mc.disks) {
			d := mc.disks[b]
			d.ReadData(mc.f.LBN(b), buf)
			if d.Stored(0, d.Spec.TotalSectors()) || !bytes.Equal(buf, make([]byte, len(buf))) {
				t.Fatalf("%v %s: closed machine's disk %s still holds its pages or its file", cfg.Method, cfg.Pattern, d.Name)
			}
		}
	}
}
