package diskstore

import (
	"bytes"
	"os"
	"path/filepath"
	"testing"
)

// The two byte formats this package reads back from disk: HCJL journal
// records (OpenJournal's replay) and HCDS1 checksum frames (Get's unframe).
// Neither may crash on any input, and each must keep exactly the bytes it
// can vouch for.

// OpenJournal over arbitrary file contents: the records it returns re-encode
// to a prefix of the file, the file is truncated to that prefix, and the
// rest — only when there is a rest — is preserved in <path>.bad.
func FuzzJournalReplay(f *testing.F) {
	good := append(encodeRecord(1, []byte("first")), encodeRecord(2, nil)...)
	crcFlip := append(append([]byte(nil), good...), encodeRecord(1, []byte("bitrot"))...)
	crcFlip[len(crcFlip)-1] ^= 0xFF
	f.Add([]byte{})
	f.Add(good)
	f.Add(append(append([]byte(nil), good...), encodeRecord(1, []byte("torn"))[:journalHeaderLen+2]...))
	f.Add(crcFlip)
	f.Add([]byte("HCJL\x01\xff\xff\xff\xff\x00\x00\x00\x00")) // a length past maxJournalPayload
	f.Add([]byte("not a journal"))
	f.Fuzz(func(t *testing.T, raw []byte) {
		path := filepath.Join(t.TempDir(), "journal")
		if err := os.WriteFile(path, raw, 0o644); err != nil {
			t.Fatal(err)
		}
		j, recs, err := OpenJournal(path)
		if err != nil {
			t.Fatal(err)
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}
		var kept []byte
		for _, r := range recs {
			kept = append(kept, encodeRecord(r.Kind, r.Payload)...)
		}
		if !bytes.HasPrefix(raw, kept) {
			t.Fatalf("%d replayed records re-encode to bytes that are not a prefix of the file", len(recs))
		}
		after, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(after, kept) {
			t.Fatalf("journal holds %d bytes after replay, want the %d-byte kept prefix", len(after), len(kept))
		}
		bad, err := os.ReadFile(path + QuarantineExt)
		switch rest := raw[len(kept):]; {
		case len(rest) == 0 && !os.IsNotExist(err):
			t.Fatalf("intact journal quarantined a tail (err %v)", err)
		case len(rest) > 0 && (err != nil || !bytes.Equal(bad, rest)):
			t.Fatalf("quarantine holds %d bytes (err %v), want the %d-byte tail", len(bad), err, len(rest))
		}
	})
}

// frame and unframe of a checksummed store: any payload round-trips, and any
// raw blob unframe accepts is exactly the frame of what it returned.
func FuzzUnframe(f *testing.F) {
	s := &Store{checksum: true}
	f.Add([]byte("payload bytes"))
	f.Add(s.frame([]byte("payload bytes")))
	f.Add(s.frame(nil))
	f.Add([]byte("HCDS1 corrupted beyond the header"))
	f.Fuzz(func(t *testing.T, x []byte) {
		if got, ok := s.unframe(s.frame(x)); !ok || !bytes.Equal(got, x) {
			t.Fatalf("unframe(frame(%d bytes)) = %d bytes, ok %v", len(x), len(got), ok)
		}
		if payload, ok := s.unframe(x); ok && !bytes.Equal(s.frame(payload), x) {
			t.Fatalf("accepted %d-byte blob does not re-frame to itself", len(x))
		}
	})
}
