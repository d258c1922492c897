package main

import (
	"repro/internal/costmodel"
	"repro/internal/fsim"
)

// newDisk returns the filesystem one store of a node writes through: a
// plain in-memory fsim.Mem. The stores run their whole code path (spool
// files, the MFS write-ahead log, group commit, every fsync call), and
// the per-layer meters count what they write and sync. A real disk is
// not used: on a virtual disk shared with other tenants, fsync and
// writeback time follow the host's load rather than the program, and
// they moved the end-to-end figures by half from run to run.
func newDisk() fsim.FS {
	return fsim.NewMem(costmodel.FSModel{})
}
