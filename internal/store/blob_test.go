package store

import (
	"bytes"
	"compress/gzip"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"testing"
)

// legacyBlob returns what earlier releases wrote for a minimal result
// under k, byte for byte: the v1 container (the plain canonical JSON
// envelope) or, with gz, the v2 container (that JSON gzipped). Both are
// invalid blobs now.
func legacyBlob(t testing.TB, k Key, gz bool) []byte {
	t.Helper()
	v1 := []byte(fmt.Sprintf("{\n \"schema\": 1,\n \"digest\": %q,\n \"profile\": %q,\n \"instance\": %d,\n"+
		" \"result\": {\n  \"device_name\": \"legacy\",\n  \"architecture\": \"\",\n"+
		"  \"capture_hint_ns\": 0,\n  \"pairs\": null\n }\n}", k.Digest, k.Profile, k.Instance))
	if !gz {
		return v1
	}
	return gzipBytes(t, v1)
}

// gzipBytes deflates b into one gzip member.
func gzipBytes(t testing.TB, b []byte) []byte {
	t.Helper()
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func readBlobFile(t *testing.T, dir string, k Key) []byte {
	t.Helper()
	data, err := os.ReadFile(filepath.Join(dir, k.blobName()))
	if err != nil {
		t.Fatal(err)
	}
	return data
}

// putThenOverwrite indexes k with a real Put, then replaces the blob on
// disk with data — a stale file under a digest the index knows.
func putThenOverwrite(t *testing.T, s *Store, dir string, k Key, data []byte) {
	t.Helper()
	if err := s.Put(k, testResult()); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, k.blobName()), data, 0o644); err != nil {
		t.Fatal(err)
	}
}

// TestLegacyBlobHealsToV3: a v1 or v2 blob left in a store directory is
// an invalid blob. Reading it is a miss counted as Corrupt that deletes
// the file and tombstones its index entry; PutRaw refuses the bytes;
// and the recompute's Put writes the v3 container in its place, which
// keeps hitting through a fresh handle.
func TestLegacyBlobHealsToV3(t *testing.T) {
	for _, name := range []string{"v1", "v2"} {
		t.Run(name, func(t *testing.T) {
			dir := t.TempDir()
			s, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			k := mustKey(t, 0, 42)
			legacy := legacyBlob(t, k, name == "v2")
			putThenOverwrite(t, s, dir, k, legacy)

			if _, ok := s.Get(k); ok {
				t.Fatalf("%s blob served as a hit", name)
			}
			if c := s.Counters(); c.Hits != 0 || c.Misses != 1 || c.Corrupt != 1 {
				t.Fatalf("counters = %+v, want one miss counted as Corrupt", c)
			}
			if _, err := os.Stat(filepath.Join(dir, k.blobName())); !os.IsNotExist(err) {
				t.Fatalf("%s blob left on disk after the miss", name)
			}
			if s.Len() != 0 {
				t.Fatalf("index still reports the unreadable key: Len=%d", s.Len())
			}
			if err := s.PutRaw(k.Digest, legacy); !errors.Is(err, ErrInvalidBlob) {
				t.Fatalf("PutRaw(%s) err = %v, want ErrInvalidBlob", name, err)
			}

			if err := s.Put(k, testResult()); err != nil {
				t.Fatal(err)
			}
			want, err := EncodeBlobV3(k, testResult())
			if err != nil {
				t.Fatal(err)
			}
			if !bytes.Equal(readBlobFile(t, dir, k), want) {
				t.Fatal("re-Put did not write the v3 container")
			}
			s2, err := Open(dir)
			if err != nil {
				t.Fatal(err)
			}
			if _, ok := s2.Get(k); !ok {
				t.Fatal("re-Put blob missed through a fresh handle")
			}
		})
	}
}

// TestMixedStoreRebuild: a directory holding v1, v2 and v3 blobs
// rebuilds its index from the v3 blob alone after losing the manifest;
// the legacy files are skipped by the scan and read as misses.
func TestMixedStoreRebuild(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	kV1, kV2, kV3 := mustKey(t, 0, 42), mustKey(t, 1, 43), mustKey(t, 2, 44)
	for k, data := range map[Key][]byte{kV1: legacyBlob(t, kV1, false), kV2: legacyBlob(t, kV2, true)} {
		if err := os.WriteFile(filepath.Join(dir, k.blobName()), data, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.Put(kV3, testResult()); err != nil {
		t.Fatal(err)
	}

	// Lose the whole index.
	os.Remove(filepath.Join(dir, manifestName))
	os.Remove(filepath.Join(dir, journalName))
	os.Remove(filepath.Join(dir, journalOldName))

	s2, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if ix := s2.Index(); len(ix) != 1 || ix[0].Digest != kV3.Digest {
		t.Fatalf("rebuilt index = %+v, want only the v3 blob", ix)
	}
	if _, ok := s2.Get(kV3); !ok {
		t.Fatal("rebuilt store misses the v3 blob")
	}
	for _, k := range []Key{kV1, kV2} {
		if _, ok := s2.Get(k); ok {
			t.Fatalf("rebuilt store serves legacy blob %s", k)
		}
	}
	if c := s2.Counters(); c.Corrupt != 2 {
		t.Fatalf("counters = %+v, want both legacy reads counted as Corrupt", c)
	}
}

// TestCorruptBlobIsMissAndHeals: a blob whose stream is truncated,
// bit-flipped, or replaced with garbage behind a valid magic must read
// as a miss that deletes the blob and tombstones its entry, after which
// recompute-and-Put heals it — never an error, never a wrong result.
// The v2 cases corrupt a legacy gzip-JSON file, which was already
// invalid before the damage.
func TestCorruptBlobIsMissAndHeals(t *testing.T) {
	corruptions := map[string]func([]byte) []byte{
		"truncated-stream": func(b []byte) []byte { return b[:len(b)/2] },
		"missing-footer":   func(b []byte) []byte { return b[:len(b)-4] },
		"bit-flip": func(b []byte) []byte {
			c := append([]byte(nil), b...)
			c[len(c)/2] ^= 0x40
			return c
		},
		"garbage-after-gzip-magic": func([]byte) []byte {
			return []byte{0x1f, 0x8b, 'n', 'o', 't', 'g', 'z'}
		},
		"garbage-after-v3-magic": func([]byte) []byte {
			return append(append([]byte(nil), v3Magic[:]...), 'n', 'o', 't', 'g', 'z')
		},
	}
	plants := map[string]func(t *testing.T, s *Store, dir string, k Key){
		"v2": func(t *testing.T, s *Store, dir string, k Key) {
			putThenOverwrite(t, s, dir, k, legacyBlob(t, k, true))
		},
		"v3": func(t *testing.T, s *Store, dir string, k Key) {
			if err := s.Put(k, testResult()); err != nil {
				t.Fatal(err)
			}
		},
	}
	for plantName, plant := range plants {
		for name, corrupt := range corruptions {
			t.Run(plantName+"/"+name, func(t *testing.T) {
				dir := t.TempDir()
				s, err := Open(dir)
				if err != nil {
					t.Fatal(err)
				}
				k := mustKey(t, 0, 42)
				plant(t, s, dir, k)
				blob := filepath.Join(dir, k.blobName())
				good, err := os.ReadFile(blob)
				if err != nil {
					t.Fatal(err)
				}
				if err := os.WriteFile(blob, corrupt(good), 0o644); err != nil {
					t.Fatal(err)
				}

				if _, ok := s.Get(k); ok {
					t.Fatal("corrupt blob served as a hit")
				}
				if _, err := os.Stat(blob); !os.IsNotExist(err) {
					t.Fatal("corrupt blob left on disk")
				}
				if s.Len() != 0 {
					t.Fatalf("index still reports the unreadable key: Len=%d", s.Len())
				}
				if c := s.Counters(); c.Corrupt != 1 || c.Misses != 1 {
					t.Fatalf("counters = %+v, want the corruption counted as one miss", c)
				}

				// Recompute-and-heal: the next Put/Get cycle is clean.
				if err := s.Put(k, testResult()); err != nil {
					t.Fatal(err)
				}
				if _, ok := s.Get(k); !ok {
					t.Fatal("healed blob missed")
				}
			})
		}
	}
}

// TestBlobInflationBound: a blob that inflates past the body-size rail
// is an invalid blob (a gzip bomb turned miss), not an allocation
// storm.
func TestBlobInflationBound(t *testing.T) {
	old := maxBodyBytes
	maxBodyBytes = 1 << 10
	defer func() { maxBodyBytes = old }()

	bomb := append(append([]byte(nil), v3Magic[:]...), gzipBytes(t, bytes.Repeat([]byte{' '}, 64<<10))...)
	if _, err := ValidateBlob(bomb, "deadbeef"); !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("oversized inflate err = %v, want ErrInvalidBlob", err)
	}

	// A legitimate blob under the rail still parses.
	maxBodyBytes = old
	k := mustKey(t, 0, 42)
	good, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	if _, err := ValidateBlob(good, k.Digest); err != nil {
		t.Fatal(err)
	}
}

// TestRejectsMultiMemberContainer: a blob must be exactly one gzip
// member — concatenated members (which multistream gzip readers
// transparently append) and raw trailing garbage would let arbitrary
// padding hide behind a valid digest and break the blob's byte
// determinism.
func TestRejectsMultiMemberContainer(t *testing.T) {
	k := mustKey(t, 0, 42)
	blob, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	concat := append(append([]byte(nil), blob...), gzipBytes(t, []byte("  \n"))...)
	if _, err := ValidateBlob(concat, k.Digest); !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("multi-member blob err = %v, want ErrInvalidBlob", err)
	}
	// Raw trailing garbage after the member is rejected the same way.
	trailing := append(append([]byte(nil), blob...), "junk"...)
	if _, err := ValidateBlob(trailing, k.Digest); !errors.Is(err, ErrInvalidBlob) {
		t.Fatalf("trailing-bytes blob err = %v, want ErrInvalidBlob", err)
	}
	// And the pristine blob still validates after those rejections (the
	// pooled reader state is clean).
	if _, err := ValidateBlob(blob, k.Digest); err != nil {
		t.Fatal(err)
	}
}

// TestBlobCompressionRatioSynthetic: the gzip layer must earn its keep
// even on a small synthetic result (body 780 → 364 bytes on disk when
// this was written); real quick-scale campaign blobs, pinned by the
// root-level TestBlobCompressionRatio, compress better still.
func TestBlobCompressionRatioSynthetic(t *testing.T) {
	k := mustKey(t, 0, 42)
	blob, err := EncodeBlobV3(k, testResult())
	if err != nil {
		t.Fatal(err)
	}
	vb, err := ValidateBlobBytes(blob, k.Digest)
	if err != nil {
		t.Fatal(err)
	}
	ratio := float64(vb.RawBytes()) / float64(len(blob))
	t.Logf("synthetic blob: body %d -> %d bytes on disk (%.2fx)", vb.RawBytes(), len(blob), ratio)
	if ratio < 1.5 {
		t.Fatalf("body/disk ratio %.2f on the synthetic blob; the gzip layer is not paying for itself", ratio)
	}
}
