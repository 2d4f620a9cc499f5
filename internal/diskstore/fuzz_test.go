package diskstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The byte format this package reads back from disk is the HCDS1 checksum
// frame, of Store blobs (Get's unframe) and of record files (ReadRecords).
// Neither reader may crash on any input, and each must keep exactly the
// bytes it can vouch for.

// ReadRecords over a directory holding one record file of arbitrary bytes
// and the temp file of an interrupted write: an intact frame comes back as
// the one record, byte-identical; anything else is moved to <name>.bad
// unchanged; the temp file is gone either way.
func FuzzRecordDir(f *testing.F) {
	good := frameBlob([]byte(`{"id":"0123456789abcdef"}`))
	flipped := append([]byte(nil), good...)
	flipped[len(flipped)-1] ^= 0xFF
	f.Add([]byte{})
	f.Add(good)
	f.Add(frameBlob(nil))
	f.Add(good[:len(good)-2])
	f.Add(flipped)
	f.Add([]byte("HCJL\x01\x00\x00\x00\x05\x00\x00\x00\x00hello")) // an older journal's record
	f.Fuzz(func(t *testing.T, raw []byte) {
		dir := t.TempDir()
		path := filepath.Join(dir, "0000000000000001-job.rec")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, recordTempPrefix+"1"), raw, 0o644); err != nil {
			t.Fatal(err)
		}
		var recs [][]byte
		bad, err := ReadRecords(dir, ".rec", func(_ string, data []byte) error {
			recs = append(recs, data)
			return nil
		})
		if err != nil {
			t.Fatal(err)
		}
		if payload, ok := unframeBlob(raw); ok {
			if bad != 0 || len(recs) != 1 || !bytes.Equal(recs[0], payload) {
				t.Fatalf("intact record read back as %d records, %d bad", len(recs), bad)
			}
			if _, err := os.Stat(path + QuarantineExt); !os.IsNotExist(err) {
				t.Fatalf("intact record quarantined (stat err %v)", err)
			}
		} else {
			if bad != 1 || len(recs) != 0 {
				t.Fatalf("corrupt record read back as %d records, %d bad", len(recs), bad)
			}
			if kept, err := os.ReadFile(path + QuarantineExt); err != nil || !bytes.Equal(kept, raw) {
				t.Fatalf("quarantine holds %d bytes (err %v), want the %d-byte record", len(kept), err, len(raw))
			}
		}
		if temps, _ := filepath.Glob(filepath.Join(dir, recordTempPrefix+"*")); len(temps) != 0 {
			t.Fatalf("temp files survived: %v", temps)
		}
	})
}

// frameBlob and unframeBlob: any payload round-trips, and any raw blob
// unframeBlob accepts is exactly the frame of what it returned.
func FuzzUnframe(f *testing.F) {
	f.Add([]byte("payload bytes"))
	f.Add(frameBlob([]byte("payload bytes")))
	f.Add(frameBlob(nil))
	f.Add([]byte("HCDS1 corrupted beyond the header"))
	f.Fuzz(func(t *testing.T, x []byte) {
		if got, ok := unframeBlob(frameBlob(x)); !ok || !bytes.Equal(got, x) {
			t.Fatalf("unframe(frame(%d bytes)) = %d bytes, ok %v", len(x), len(got), ok)
		}
		if payload, ok := unframeBlob(x); ok && !bytes.Equal(frameBlob(payload), x) {
			t.Fatalf("accepted %d-byte blob does not re-frame to itself", len(x))
		}
	})
}
