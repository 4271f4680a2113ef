// Package atomicwrite_bad writes artifacts straight to their final
// paths, in every form the analyzer flags.
package atomicwrite_bad

import (
	"os"
	"path/filepath"
)

// manifestName matches the store's manifest constant.
const manifestName = "manifest.bin"

// saveSurfaceDirect writes the surface bytes to the final path; a
// crash mid-write leaves a truncated artifact.
func saveSurfaceDirect(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "grid.surf"), data, 0o644) // want:atomicwrite artifact file written directly to its final path
}

// saveManifestDirect reaches the manifest through the package constant
// and a local; taint follows the assignment.
func saveManifestDirect(dir string, data []byte) error {
	path := filepath.Join(dir, manifestName)
	return os.WriteFile(path, data, 0o644) // want:atomicwrite artifact file written directly to its final path
}

// createSnapshot opens the final snapshot path for writing directly.
func createSnapshot(dir string) (*os.File, error) {
	return os.Create(filepath.Join(dir, "p.surf")) // want:atomicwrite artifact file written directly to its final path
}

// rawSave writes its argument with no tmp+rename protection; it is
// not a finding itself, but handing it an artifact path is.
func rawSave(path string, data []byte) error {
	return os.WriteFile(path, data, 0o644)
}

// saveViaHelper launders the artifact path through the raw helper.
func saveViaHelper(dir string, data []byte) error {
	return rawSave(filepath.Join(dir, "grid.surf"), data) // want:atomicwrite artifact path handed to rawSave
}

// tmpNeverRenamed writes the scratch file but forgets the rename: the
// artifact is never published.
func tmpNeverRenamed(dir string, data []byte) error {
	return os.WriteFile(filepath.Join(dir, "grid.surf")+".tmp", data, 0o644) // want:atomicwrite temp file is written but never renamed into place
}
