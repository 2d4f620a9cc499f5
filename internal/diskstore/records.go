package diskstore

import (
	"fmt"
	"os"
	"path/filepath"
	"strings"
)

// A record directory holds one checksum-framed file per record, each
// written whole: temp file, fsync, rename into place, fsync of the
// directory. A crash leaves every record absent or intact, plus at most a
// temp file that ReadRecords removes, so there is no torn tail to repair.
// Records share the Store's frame and QuarantineExt but none of its byte
// budget, retries or degraded mode: a write lands or reports its error.

// recordTempPrefix names WriteRecord's temp files.
const recordTempPrefix = "record-tmp-"

// WriteRecord durably stores data as dir/name, replacing any record of
// that name. A failed write leaves no temp file behind.
func WriteRecord(dir, name string, data []byte) error {
	tmp, err := os.CreateTemp(dir, recordTempPrefix+"*")
	if err != nil {
		return fmt.Errorf("diskstore: record %s: %w", name, err)
	}
	_, err = tmp.Write(frameBlob(data))
	if err == nil {
		err = tmp.Sync()
	}
	if cerr := tmp.Close(); err == nil {
		err = cerr
	}
	if err == nil {
		err = os.Rename(tmp.Name(), filepath.Join(dir, name))
	}
	if err != nil {
		_ = os.Remove(tmp.Name())
		return fmt.Errorf("diskstore: record %s: %w", name, err)
	}
	return syncDir(dir)
}

// RemoveRecord durably deletes dir/name. A record already gone is not an
// error.
func RemoveRecord(dir, name string) error {
	if err := os.Remove(filepath.Join(dir, name)); err != nil {
		if os.IsNotExist(err) {
			return nil
		}
		return fmt.Errorf("diskstore: record %s: %w", name, err)
	}
	return syncDir(dir)
}

// ReadRecords creates dir if needed and hands every intact record whose
// name ends in ext to use, in name order, frame stripped. Temp files of
// interrupted writes are removed. A record whose frame does not check out,
// or whose payload use rejects with an error, is renamed to <name>.bad —
// kept as evidence, never read again — and counted in bad.
func ReadRecords(dir, ext string, use func(name string, data []byte) error) (bad int, err error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return 0, fmt.Errorf("diskstore: %w", err)
	}
	entries, err := os.ReadDir(dir) // sorted by name
	if err != nil {
		return 0, fmt.Errorf("diskstore: %w", err)
	}
	for _, e := range entries {
		name, path := e.Name(), filepath.Join(dir, e.Name())
		if strings.HasPrefix(name, recordTempPrefix) {
			if err := os.Remove(path); err != nil {
				return bad, fmt.Errorf("diskstore: %w", err)
			}
			continue
		}
		if e.IsDir() || filepath.Ext(name) != ext {
			continue
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return bad, fmt.Errorf("diskstore: %w", err)
		}
		if data, ok := unframeBlob(raw); ok && use(name, data) == nil {
			continue
		}
		if err := os.Rename(path, path+QuarantineExt); err != nil {
			return bad, fmt.Errorf("diskstore: %w", err)
		}
		bad++
	}
	return bad, nil
}

// syncDir makes a rename or an unlink in dir durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return fmt.Errorf("diskstore: %w", err)
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return fmt.Errorf("diskstore: sync %s: %w", dir, err)
	}
	return nil
}
