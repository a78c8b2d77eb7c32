package persist

import (
	"bytes"
	"encoding/json"
	"errors"
	"io/fs"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

func TestOpenRejectsEmptyDir(t *testing.T) {
	if _, err := Open(""); err == nil {
		t.Error("empty dir accepted")
	}
}

func TestSaveLoadRoundTrip(t *testing.T) {
	s, err := Open(filepath.Join(t.TempDir(), "state"))
	if err != nil {
		t.Fatal(err)
	}
	payload := []byte(`{"level":420,"count":7}`)
	if err := s.Save("serve.match", "sig-1", payload); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("serve.match", "sig-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload) {
		t.Errorf("payload = %s, want %s", got, payload)
	}
	// Overwrite is atomic and versioned the same way.
	payload2 := []byte(`{"level":500,"count":9}`)
	if err := s.Save("serve.match", "sig-1", payload2); err != nil {
		t.Fatal(err)
	}
	got, err = s.Load("serve.match", "sig-1")
	if err != nil {
		t.Fatal(err)
	}
	if string(got) != string(payload2) {
		t.Errorf("payload after overwrite = %s", got)
	}
}

// TestSaveCompactsPayload: a payload need not be the compact JSON a
// controller's MarshalState writes. The envelope stores it compacted and
// checksums what it stores, so indentation — or a '<' the encoder would
// have escaped — round-trips instead of loading as ErrCorrupt, and bytes
// that are not JSON are refused by Save.
func TestSaveCompactsPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	indented := []byte("{\n  \"level\": 420,\n  \"note\": \"a<b & c\",\n  \"runs\": [1, 2,\t3]\n}\n")
	var compact bytes.Buffer
	if err := json.Compact(&compact, indented); err != nil {
		t.Fatal(err)
	}
	if err := s.Save("ctrl", "sig", indented); err != nil {
		t.Fatal(err)
	}
	got, err := s.Load("ctrl", "sig")
	if err != nil {
		t.Fatalf("indented payload does not load: %v", err)
	}
	if !bytes.Equal(got, compact.Bytes()) {
		t.Errorf("payload = %s, want %s", got, compact.Bytes())
	}
	for _, bad := range []string{"", "{", `{"a":1} x`, "\x00"} {
		if err := s.Save("bad", "", []byte(bad)); err == nil {
			t.Errorf("Save accepted %q", bad)
		}
	}
	if _, err := s.Load("bad", ""); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("a refused Save left a snapshot behind: %v", err)
	}
}

func TestLoadMissingIsNotExist(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	_, err = s.Load("nope", "")
	if !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing snapshot error = %v, want fs.ErrNotExist", err)
	}
}

func TestLoadRejectsCorruptPayload(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("x", "", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	// Flip a payload byte inside the envelope on disk.
	path := s.Path("x")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	corrupted := strings.Replace(string(data), `{"a":1}`, `{"a":7}`, 1)
	if corrupted == string(data) {
		t.Fatal("test could not locate payload to corrupt")
	}
	if err := os.WriteFile(path, []byte(corrupted), 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("x", ""); !errors.Is(err, ErrCorrupt) {
		t.Errorf("checksum mismatch error = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsTornWrite(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("x", "", []byte(`{"a":1}`)); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(s.Path("x"))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.Path("x"), data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("x", ""); !errors.Is(err, ErrCorrupt) {
		t.Errorf("torn-write error = %v, want ErrCorrupt", err)
	}
}

func TestLoadRejectsForeignModel(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("x", "model-A", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("x", "model-B"); !errors.Is(err, ErrForeignModel) {
		t.Errorf("foreign model error = %v, want ErrForeignModel", err)
	}
	// Empty controller signature skips the binding (tooling that just
	// wants the bytes).
	if _, err := s.Load("x", ""); err != nil {
		t.Errorf("unbound load failed: %v", err)
	}
}

func TestLoadRejectsUnsupportedVersion(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Save("x", "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	var env map[string]any
	data, _ := os.ReadFile(s.Path("x"))
	if err := json.Unmarshal(data, &env); err != nil {
		t.Fatal(err)
	}
	env["version"] = 99
	data, _ = json.Marshal(env)
	if err := os.WriteFile(s.Path("x"), data, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load("x", ""); !errors.Is(err, ErrVersion) {
		t.Errorf("version error = %v, want ErrVersion", err)
	}
}

func TestLoadRejectsNameMismatch(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	// "a/b" and "a\b" sanitize to the same file stem; the envelope name
	// check catches the collision instead of serving one unit's state to
	// the other.
	if err := s.Save("a/b", "", []byte(`{}`)); err != nil {
		t.Fatal(err)
	}
	if _, err := s.Load(`a\b`, ""); !errors.Is(err, ErrCorrupt) {
		t.Errorf("name mismatch error = %v, want ErrCorrupt", err)
	}
}

func TestSaveLeavesNoTempFilesBehind(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if err := s.Save("x", "", []byte(`{"i":1}`)); err != nil {
			t.Fatal(err)
		}
	}
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 1 {
		names := make([]string, 0, len(entries))
		for _, e := range entries {
			names = append(names, e.Name())
		}
		t.Errorf("state dir has %d entries, want 1: %v", len(entries), names)
	}
}

func TestSanitizeKeepsPathsInsideDir(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, hostile := range []string{"../../etc/passwd", "a/b/c", "", "..", "\\windows"} {
		p := s.Path(hostile)
		rel, err := filepath.Rel(dir, p)
		if err != nil || strings.HasPrefix(rel, "..") {
			t.Errorf("Path(%q) = %q escapes the state dir", hostile, p)
		}
	}
}

func TestSignatureStableAndDiscriminating(t *testing.T) {
	type modelish struct {
		Levels []float64
		SLA    float64
	}
	a1, err := Signature(modelish{Levels: []float64{1, 2}, SLA: 0.02}, 42)
	if err != nil {
		t.Fatal(err)
	}
	a2, err := Signature(modelish{Levels: []float64{1, 2}, SLA: 0.02}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a1 != a2 {
		t.Error("signature unstable for identical inputs")
	}
	b, err := Signature(modelish{Levels: []float64{1, 2}, SLA: 0.03}, 42)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == b {
		t.Error("signature identical across different SLAs")
	}
	c, err := Signature(modelish{Levels: []float64{1, 2}, SLA: 0.02}, 43)
	if err != nil {
		t.Fatal(err)
	}
	if a1 == c {
		t.Error("signature identical across different seeds")
	}
}

// fakeSnapshotter round-trips a JSON blob and can be scripted to fail.
type fakeSnapshotter struct {
	state    map[string]int
	restored []byte
	failWith error
}

func (f *fakeSnapshotter) MarshalState() ([]byte, error) {
	if f.failWith != nil {
		return nil, f.failWith
	}
	return json.Marshal(f.state)
}

func (f *fakeSnapshotter) RestoreStateJSON(data []byte) error {
	if f.failWith != nil {
		return f.failWith
	}
	f.restored = append([]byte(nil), data...)
	return json.Unmarshal(data, &f.state)
}

func TestSaveFromLoadIntoRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	src := &fakeSnapshotter{state: map[string]int{"level": 7}}
	if err := s.SaveFrom("ctrl", "sig", src); err != nil {
		t.Fatal(err)
	}
	dst := &fakeSnapshotter{}
	if err := s.LoadInto("ctrl", "sig", dst); err != nil {
		t.Fatal(err)
	}
	if dst.state["level"] != 7 {
		t.Errorf("restored state = %v", dst.state)
	}
}

func TestSaveFromPropagatesMarshalFailure(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	boom := errors.New("marshal boom")
	if err := s.SaveFrom("ctrl", "", &fakeSnapshotter{failWith: boom}); !errors.Is(err, boom) {
		t.Errorf("SaveFrom error = %v, want wrapping %v", err, boom)
	}
	if _, err := os.Stat(s.Path("ctrl")); !errors.Is(err, fs.ErrNotExist) {
		t.Error("failed SaveFrom left a snapshot file behind")
	}
}

func TestLoadIntoKeepsTypedEnvelopeErrors(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	dst := &fakeSnapshotter{}
	if err := s.LoadInto("absent", "", dst); !errors.Is(err, fs.ErrNotExist) {
		t.Errorf("missing snapshot error = %v, want fs.ErrNotExist", err)
	}
	src := &fakeSnapshotter{state: map[string]int{"a": 1}}
	if err := s.SaveFrom("ctrl", "sig-a", src); err != nil {
		t.Fatal(err)
	}
	if err := s.LoadInto("ctrl", "sig-b", dst); !errors.Is(err, ErrForeignModel) {
		t.Errorf("foreign-model error = %v, want ErrForeignModel", err)
	}
	// Restore rejections are the snapshotter's own.
	boom := errors.New("restore boom")
	if err := s.LoadInto("ctrl", "sig-a", &fakeSnapshotter{failWith: boom}); !errors.Is(err, boom) {
		t.Errorf("LoadInto error = %v, want %v", err, boom)
	}
}

// FuzzPersistEnvelope: a snapshot file is whatever a crash, a disk or a
// stranger left under the name. Two readings of each input:
//
//   - file as the bytes on disk: Load and LoadInto do not panic, and an
//     envelope Load refuses never reaches the snapshotter;
//   - file as the state saved — itself if it is JSON (indented, escaped or
//     not: Save stores it compact), wrapped in a string otherwise — the
//     envelope then cut at cut and one bit flipped at flip: Load returns
//     the payload it was given, compacted and whole, or an error — never a
//     prefix, never other bytes; undamaged, it loads.
func FuzzPersistEnvelope(f *testing.F) {
	f.Add([]byte(`{"a":1}`), uint16(0), uint16(0))
	f.Add([]byte(`{}`), uint16(40), uint16(0))       // the torn write
	f.Add([]byte(`{"a":1}`), uint16(0), uint16(700)) // a flipped payload bit
	f.Add([]byte(`{"version":99,"name":"x","crc32c":0,"payload":{}}`), uint16(1), uint16(1))
	f.Add([]byte(`{"version":1,"name":"y","crc32c":0,"payload":null}`), uint16(0), uint16(9))
	f.Add([]byte("{\n\t\"level\": 4,\n\t\"tag\": \"<&>\u2028\"\n}"), uint16(0), uint16(0)) // not compact, not HTML-safe
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, file []byte, cut, flip uint16) {
		if err := os.WriteFile(s.Path("x"), file, 0o644); err != nil {
			t.Fatal(err)
		}
		dst := &fakeSnapshotter{}
		if _, err := s.Load("x", ""); err != nil && (s.LoadInto("x", "", dst) == nil || dst.restored != nil) {
			t.Fatalf("an envelope Load refuses (%v) was restored: %q", err, dst.restored)
		}

		state := file
		if !json.Valid(state) {
			if state, err = json.Marshal(string(file)); err != nil {
				t.Fatal(err)
			}
		}
		var payload bytes.Buffer
		if err := json.Compact(&payload, state); err != nil {
			t.Fatal(err)
		}
		data, err := encodeEnvelope("x", "sig", state) // what Save writes, without its fsyncs
		if err != nil {
			t.Fatal(err)
		}
		if cut != 0 {
			data = data[:int(cut)%len(data)]
		}
		if flip != 0 && len(data) > 0 {
			data[int(flip/8)%len(data)] ^= 1 << (flip % 8)
		}
		if err := os.WriteFile(s.Path("x"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		got, err := s.Load("x", "sig")
		if err == nil && !bytes.Equal(got, payload.Bytes()) {
			t.Fatalf("a damaged envelope (cut %d, flip %d) loads as\n%s\nsaved was\n%s", cut, flip, got, payload.Bytes())
		}
		if err != nil && cut == 0 && flip == 0 {
			t.Fatalf("an undamaged envelope of %q does not load: %v", state, err)
		}
	})
}
