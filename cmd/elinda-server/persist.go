package main

import (
	"errors"
	"fmt"
	"io/fs"
	"log"
	"os"

	"elinda"
)

// restoreHVS loads a heavy-query-store snapshot from path if one exists;
// its entries are kept only if it was saved at the store's current
// generation. A missing file is not an error on first boot.
func restoreHVS(sys *elinda.System, path string) error {
	f, err := os.Open(path)
	if err != nil {
		if errors.Is(err, fs.ErrNotExist) {
			return fmt.Errorf("no snapshot at %s yet", path)
		}
		return err
	}
	defer f.Close()
	return sys.Proxy.HVS().Restore(f, sys.Store.Generation())
}

// saveHVS writes the current cache to path atomically (write to a temp
// file, then rename).
func saveHVS(sys *elinda.System, path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	if err := sys.Proxy.HVS().Snapshot(f); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// saver is one persistence action run at shutdown.
type saver struct {
	name string
	save func() error
}

// runSavers runs every registered saver, called after the graceful drain
// completes — the store's binary snapshot and the HVS cache both land on
// disk before the process exits, so the next boot warm-starts.
func runSavers(savers []saver) {
	for _, s := range savers {
		if err := s.save(); err != nil {
			log.Printf("%s save failed: %v", s.name, err)
		} else {
			log.Printf("%s saved", s.name)
		}
	}
}
