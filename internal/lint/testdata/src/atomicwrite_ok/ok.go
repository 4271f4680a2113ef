// Package atomicwrite_ok publishes every artifact through the
// tmp+rename idiom the store's crash-safety contract demands.
package atomicwrite_ok

import (
	"os"
	"path/filepath"
)

// manifestName matches the store's manifest constant.
const manifestName = "manifest.bin"

// snapshotName mirrors the store's key-to-file-name mapping; its
// results are artifact names.
func snapshotName(stem string) string {
	return stem + ".surf"
}

// writeFileAtomic is the sanctioned idiom: write the temp path, then
// rename into place.
func writeFileAtomic(path string, data []byte) error {
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, data, 0o644); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// saveSurface routes an artifact path through the atomic writer.
func saveSurface(dir string, data []byte) error {
	return writeFileAtomic(filepath.Join(dir, "grid.surf"), data)
}

// saveManifest routes the manifest through the atomic writer, naming
// it via the package constant.
func saveManifest(dir string, data []byte) error {
	return writeFileAtomic(filepath.Join(dir, manifestName), data)
}

// saveNamed derives the artifact name from the in-package naming
// helper; still atomic.
func saveNamed(dir, stem string, data []byte) error {
	name := snapshotName(stem)
	return writeFileAtomic(filepath.Join(dir, name), data)
}

// saveLog writes a non-artifact file; plain os.WriteFile is fine
// outside the artifact contract.
func saveLog(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "run.log"), data, 0o644)
}
