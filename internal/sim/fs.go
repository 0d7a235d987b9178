package sim

import (
	"fmt"
	"sort"
)

// FileID identifies an elementary file (EF) on the card.
type FileID uint16

// Well-known file identifiers (TS 31.102 where applicable; the 0x6FFx
// range holds the operator-specific configuration SEED refreshes).
const (
	EFIMSI    FileID = 0x6F07 // subscriber identity
	EFPLMNSel FileID = 0x6F30 // preferred PLMN list
	EFAD      FileID = 0x6FAD // administrative data
	EFDNN     FileID = 0x6FF1 // configured DNN/APN
	EFDNS     FileID = 0x6FF2 // configured DNS servers
	EFSNSSAI  FileID = 0x6FF3 // configured network slice
	EFRATMode FileID = 0x6FF4 // supported RAT configuration
	EFSEEDLog FileID = 0x6FF8 // SEED applet persistent record store
)

// FileSystem is the card's EEPROM-backed EF store. Every byte written
// counts against the EEPROM quota; exceeding it fails the write, which is
// how "the cause table and learning records fit in SIM storage" becomes an
// enforced invariant.
type FileSystem struct {
	quota int
	used  int
	files map[FileID][]byte
}

// NewFileSystem creates a store with the given EEPROM quota in bytes.
func NewFileSystem(quota int) *FileSystem {
	return &FileSystem{quota: quota, files: make(map[FileID][]byte)}
}

// Used returns the bytes currently consumed.
func (fs *FileSystem) Used() int { return fs.used }

// Free returns the remaining capacity.
func (fs *FileSystem) Free() int { return fs.quota - fs.used }

// Exists reports whether the file is present.
func (fs *FileSystem) Exists(id FileID) bool {
	_, ok := fs.files[id]
	return ok
}

// Read returns a copy of the file contents.
func (fs *FileSystem) Read(id FileID) ([]byte, error) {
	data, err := fs.view(id)
	if err != nil {
		return nil, err
	}
	return append([]byte(nil), data...), nil
}

// view returns the file contents themselves, for readers inside the
// package that only parse them. A Write replaces a file's slice, so a view
// never changes under its reader.
func (fs *FileSystem) view(id FileID) ([]byte, error) {
	data, okf := fs.files[id]
	if !okf {
		return nil, fmt.Errorf("sim: file %04X not found", uint16(id))
	}
	return data, nil
}

// Write replaces the file contents, charging the size delta against the
// EEPROM quota.
func (fs *FileSystem) Write(id FileID, data []byte) error {
	old := len(fs.files[id])
	delta := len(data) - old
	if fs.used+delta > fs.quota {
		return fmt.Errorf("sim: EEPROM quota exceeded: need %d over %d used of %d", delta, fs.used, fs.quota)
	}
	fs.files[id] = append([]byte(nil), data...)
	fs.used += delta
	return nil
}

// Delete removes a file, reclaiming its space. Deleting a missing file is
// a no-op.
func (fs *FileSystem) Delete(id FileID) {
	fs.used -= len(fs.files[id])
	delete(fs.files, id)
}

// List returns the present file IDs in ascending order.
func (fs *FileSystem) List() []FileID {
	ids := make([]FileID, 0, len(fs.files))
	for id := range fs.files {
		ids = append(ids, id)
	}
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
	return ids
}
