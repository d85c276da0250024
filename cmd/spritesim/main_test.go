package main

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"sprite/internal/experiments"
)

// TestSnapshotWritesTableData: -snapshot writes exactly the indented JSON of
// the driver's Table.Data, and the printed table is the table a run without
// -snapshot prints.
func TestSnapshotWritesTableData(t *testing.T) {
	for _, id := range []string{"E15", "E16", "E18"} {
		t.Run(id, func(t *testing.T) {
			tbl, err := experiments.Find(id).Run(experiments.Config{Seed: 42, Quick: true})
			if err != nil {
				t.Fatal(err)
			}
			want, err := json.MarshalIndent(tbl.Data, "", "  ")
			if err != nil {
				t.Fatal(err)
			}
			file := filepath.Join(t.TempDir(), "snap.json")
			var out bytes.Buffer
			if err := run([]string{"-experiment", id, "-quick", "-snapshot", file}, &out); err != nil {
				t.Fatal(err)
			}
			if out.String() != tbl.String()+"\n" {
				t.Errorf("-snapshot changed the printed table:\n%s\nvs\n%s", out.String(), tbl)
			}
			got, err := os.ReadFile(file)
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(got, want) {
				t.Errorf("snapshot file differs from MarshalIndent(tbl.Data):\n%s\nvs\n%s", got, want)
			}
		})
	}
}

// TestComparisonTablesPrintTheirGoldens: -list names E19 and E20, and
// -experiment at the default seed prints exactly the pinned table that
// EXPERIMENTS.md quotes.
func TestComparisonTablesPrintTheirGoldens(t *testing.T) {
	var list bytes.Buffer
	if err := run([]string{"-list"}, &list); err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"E19", "E20"} {
		if !strings.Contains(list.String(), id+" ") {
			t.Errorf("-list lacks %s:\n%s", id, list.String())
		}
		want, err := os.ReadFile(filepath.Join("..", "..", "internal", "experiments", "testdata", id+".golden"))
		if err != nil {
			t.Fatal(err)
		}
		var out bytes.Buffer
		if err := run([]string{"-experiment", id, "-seed", "42"}, &out); err != nil {
			t.Fatal(err)
		}
		if out.String() != string(want)+"\n" {
			t.Errorf("-experiment %s differs from its golden:\n%s", id, out.String())
		}
	}
}

// TestSnapshotNeedsATableWithData: -snapshot fails loudly when there is
// nothing to write — a driver without typed rows, or a mode that prints no
// single table.
func TestSnapshotNeedsATableWithData(t *testing.T) {
	file := filepath.Join(t.TempDir(), "snap.json")
	for _, args := range [][]string{
		{"-experiment", "E12", "-snapshot", file},
		{"-list", "-snapshot", file},
		{"-all", "-quick", "-snapshot", file},
	} {
		if err := run(args, new(bytes.Buffer)); err == nil {
			t.Errorf("%v: no error", args)
		}
		if _, err := os.Stat(file); err == nil {
			t.Fatalf("%v: wrote %s", args, file)
		}
	}
}

// TestConfinedScaleTier runs the nightly tier's mode at a small fleet: the
// driver itself fails on a serial-vs-parallel digest divergence, so a nil
// error is the check; the snapshot carries both rows.
func TestConfinedScaleTier(t *testing.T) {
	// run exports -parallel/-workers through the environment; restore it.
	t.Setenv("SPRITE_SIM_PARALLEL", "")
	file := filepath.Join(t.TempDir(), "scale.json")
	var out bytes.Buffer
	if err := run([]string{"-confined-scale", "-hosts", "48", "-snapshot", file}, &out); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(file)
	if err != nil {
		t.Fatal(err)
	}
	var rows []struct {
		Kernel string `json:"kernel"`
		Hosts  int    `json:"hosts"`
		Digest string `json:"order_digest"`
	}
	if err := json.Unmarshal(data, &rows); err != nil {
		t.Fatal(err)
	}
	if len(rows) != 2 || rows[0].Kernel != "serial" || rows[1].Kernel != "parallel" ||
		rows[0].Hosts != 48 || rows[0].Digest == "" || rows[0].Digest != rows[1].Digest {
		t.Fatalf("unexpected rows: %+v", rows)
	}
	if !strings.Contains(out.String(), "digests agree at 48 hosts") {
		t.Errorf("table lacks the agreement note:\n%s", out.String())
	}
	if err := run([]string{"-confined-scale", "-hosts", "48", "-parallel"}, &out); err == nil {
		t.Error("-confined-scale accepted -parallel, which would make its serial leg parallel")
	}
}
