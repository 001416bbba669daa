//go:build !linux

package storage

import "os"

// vecFile and readScratch are empty where the platform has no vectored
// positional read wired up: readv reads nothing, and Store.readPages
// reads every buffer with its own ReadAt.
type vecFile struct{}

type readScratch struct{}

func newVecFile(*os.File) (vecFile, error) { return vecFile{}, nil }

func (vecFile) readv([][]byte, int64, *readScratch) (int, error) { return 0, nil }
