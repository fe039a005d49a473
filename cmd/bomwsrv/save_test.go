package main

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"

	"bomw/internal/core"
	"bomw/internal/models"
)

// What -save writes is what -load restores: the file reloads with
// core.LoadState and re-serialises to the same bytes. A file that
// cannot be written is a failed save, not a silent one.
func TestSaveState(t *testing.T) {
	sched, err := core.New(core.Config{TrainModels: models.AllModels(), Seed: 1})
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(t.TempDir(), "sched.state")
	f, err := os.Create(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := saveState(sched, f); err != nil {
		t.Fatal(err)
	}
	saved, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	restored, err := core.LoadState(core.Config{Seed: 1}, bytes.NewReader(saved))
	if err != nil {
		t.Fatal(err)
	}
	var again bytes.Buffer
	if err := restored.SaveState(&again); err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(saved, again.Bytes()) {
		t.Fatalf("restored scheduler re-serialises to %d bytes that differ from the %d saved", again.Len(), len(saved))
	}

	// f is closed now, so every write to it fails.
	if err := saveState(sched, f); err == nil {
		t.Fatal("saving to a closed file reported success")
	}
}
