package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"testing"

	"flumen/internal/wfp"
)

// FuzzStoreLoad writes fuzzed bytes as a store's manifest.json,
// manifest.json.bak and one blob, then opens and loads the store the way a
// restarting daemon does. Whatever the bytes, load must not panic; it may
// fail only when neither manifest is usable, never because of a blob; and
// every model it returns must validate and be backed by a blob that hashes
// to its digest. The seed corpus in testdata/fuzz/FuzzStoreLoad holds a
// good store, a torn manifest, a checksum-tampered manifest, a .bak-only
// store, a corrupt blob and an infer model.
func FuzzStoreLoad(f *testing.F) {
	f.Fuzz(func(t *testing.T, manifest, backup, blob []byte) {
		s := openFuzzStore(t, manifest, backup, blob)
		models, _, err := s.load()
		if err != nil {
			if _, _, merr := s.readManifest(); merr == nil {
				t.Fatalf("load failed with a usable manifest: %v", err)
			}
			return
		}
		for _, m := range models {
			if err := m.Spec.Validate(); err != nil {
				t.Fatalf("loaded %s does not validate: %v", m.Spec.Ref(), err)
			}
			b, err := os.ReadFile(s.blobPath(m.Digest))
			if err != nil {
				t.Fatalf("loaded %s has no blob: %v", m.Spec.Ref(), err)
			}
			if got := wfp.Hex(string(b)); got != m.Digest {
				t.Fatalf("loaded %s from a blob hashing to %s, digest %s", m.Spec.Ref(), got, m.Digest)
			}
		}
	})
}

// openFuzzStore opens a store in a fresh directory holding the given
// manifest, backup and blob; empty bytes leave the file out. The blob is
// named by the digest the manifest's (else the backup's) first entry
// references, so a mutated blob is a torn or tampered blob under a name the
// manifest trusts; with no such entry it is named by its own digest.
func openFuzzStore(t *testing.T, manifest, backup, blob []byte) *store {
	t.Helper()
	s, err := openStore(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	digest := wfp.Hex(string(blob))
	for _, b := range [][]byte{manifest, backup} {
		var mf manifestFile
		if json.Unmarshal(b, &mf) != nil || len(mf.Models) == 0 {
			continue
		}
		// Only a sha256-shaped name is a file name inside blobs/.
		if d := mf.Models[0].Digest; len(d) == sha256.Size*2 {
			if _, err := hex.DecodeString(d); err == nil {
				digest = d
				break
			}
		}
	}
	for path, b := range map[string][]byte{
		s.manifestPath():   manifest,
		s.backupPath():     backup,
		s.blobPath(digest): blob,
	} {
		if len(b) == 0 {
			continue
		}
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return s
}

// TestStoreLoadSeedCorpus pins what each committed seed of FuzzStoreLoad
// loads, so the corpus keeps covering the recovery paths it was written
// for.
func TestStoreLoadSeedCorpus(t *testing.T) {
	want := map[string]string{
		"good":              "alpha@v1",
		"torn-manifest":     "alpha@v1",
		"tampered-checksum": "alpha@v1",
		"bak-only":          "alpha@v1",
		"corrupt-blob":      "",
		"infer":             "net@v2",
	}
	for name, ref := range want {
		t.Run(name, func(t *testing.T) {
			manifest, backup, blob := readSeed(t, name)
			models, notes, err := openFuzzStore(t, manifest, backup, blob).load()
			if err != nil {
				t.Fatal(err)
			}
			var got string
			for _, m := range models {
				got += m.Spec.Ref()
			}
			if got != ref {
				t.Fatalf("loaded %q, want %q (notes %q)", got, ref, notes)
			}
		})
	}
}

// readSeed parses one committed corpus file: the "go test fuzz v1" header
// and three []byte lines.
func readSeed(t *testing.T, name string) (manifest, backup, blob []byte) {
	t.Helper()
	raw, err := os.ReadFile(filepath.Join("testdata", "fuzz", "FuzzStoreLoad", name))
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if len(lines) != 4 || lines[0] != "go test fuzz v1" {
		t.Fatalf("seed %s is not a three-value corpus file", name)
	}
	vals := make([][]byte, 3)
	for i, line := range lines[1:] {
		q, ok := strings.CutPrefix(line, "[]byte(")
		s, err := strconv.Unquote(strings.TrimSuffix(q, ")"))
		if !ok || err != nil {
			t.Fatalf("seed %s line %d: %q", name, i+2, line)
		}
		vals[i] = []byte(s)
	}
	return vals[0], vals[1], vals[2]
}
