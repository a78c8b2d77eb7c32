// Package persist implements crash-safe persistence of controller
// runtime state. A service that is kill -9'd (or OOM-killed, or loses
// its node) should come back with the approximation levels runtime
// recalibration had reached, not the cold model defaults — otherwise
// every restart re-learns the production input distribution from
// scratch and the SLA is unprotected for the whole warm-up.
//
// The write path is the classic crash-safe sequence: marshal into a
// versioned, checksummed envelope; write to a temporary file in the
// destination directory; fsync the file; atomically rename over the
// destination; fsync the directory. A crash at any point leaves either
// the old snapshot or the new one, never a torn mix.
//
// The read path trusts nothing: the envelope version, the payload
// checksum, the snapshot name, and the model signature are all verified
// before a byte of payload reaches a controller, and the controller's
// own Restore validation (NaN/Inf/range checks in internal/core) runs
// after that. A snapshot that fails any check is reported with a typed
// error so callers can distinguish "no snapshot" (cold start) from
// "corrupt snapshot" (count it, start cold) from "foreign model"
// (recalibrated or reconfigured since; start cold).
package persist

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"hash/crc32"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// Version is the envelope schema version this package writes.
const Version = 1

// Typed load failures. os.IsNotExist / errors.Is(err, fs.ErrNotExist)
// still works for a missing snapshot file.
var (
	// ErrCorrupt: the file is unreadable as an envelope or fails its
	// checksum — a torn write, disk corruption, or tampering.
	ErrCorrupt = errors.New("persist: snapshot corrupt")
	// ErrVersion: the envelope schema is from an incompatible release.
	ErrVersion = errors.New("persist: unsupported snapshot version")
	// ErrForeignModel: the snapshot was taken against a different QoS
	// model (different calibration, corpus, or SLA) and its levels are
	// meaningless for this controller.
	ErrForeignModel = errors.New("persist: snapshot belongs to a different model")
)

// envelope wraps a payload with everything needed to validate it.
type envelope struct {
	Version   int             `json:"version"`
	Name      string          `json:"name"`
	ModelSig  string          `json:"model_sig,omitempty"`
	SavedUnix int64           `json:"saved_unix"`
	CRC32C    uint32          `json:"crc32c"`
	Payload   json.RawMessage `json:"payload"`
}

// castagnoli is the CRC-32C table (the polynomial used by storage
// systems for payload checksums).
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// Store persists named snapshots under one directory.
type Store struct {
	dir string
}

// Open creates the state directory if needed and returns a store over
// it.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, errors.New("persist: empty state directory")
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("persist: create state dir: %w", err)
	}
	return &Store{dir: dir}, nil
}

// Path returns the snapshot file path for name.
func (s *Store) Path(name string) string {
	return filepath.Join(s.dir, sanitize(name)+".snapshot.json")
}

// sanitize maps a controller name onto a safe file stem: path
// separators and dots collapse to dashes so serve.match and a
// hostile "../../etc/passwd" both stay inside the state directory.
func sanitize(name string) string {
	repl := strings.NewReplacer("/", "-", "\\", "-", "..", "-", string(filepath.Separator), "-")
	out := repl.Replace(name)
	if out == "" {
		out = "unnamed"
	}
	return out
}

// encodeEnvelope is the file Save writes. The payload is stored compact
// (any valid JSON is accepted; Load returns its compacted form) and the
// checksum is taken over those stored bytes, which the encoder then
// copies verbatim: HTML escaping is off, or a '<' inside a payload string
// would be rewritten after the checksum was taken.
func encodeEnvelope(name, modelSig string, payload []byte) ([]byte, error) {
	var stored bytes.Buffer
	if err := json.Compact(&stored, payload); err != nil {
		return nil, fmt.Errorf("persist: payload for %q is not JSON: %w", name, err)
	}
	var data bytes.Buffer
	enc := json.NewEncoder(&data)
	enc.SetEscapeHTML(false)
	err := enc.Encode(envelope{
		Version:   Version,
		Name:      name,
		ModelSig:  modelSig,
		SavedUnix: time.Now().Unix(),
		CRC32C:    crc32.Checksum(stored.Bytes(), castagnoli),
		Payload:   stored.Bytes(),
	})
	if err != nil {
		return nil, fmt.Errorf("persist: encode envelope: %w", err)
	}
	return data.Bytes(), nil
}

// Save atomically writes payload as the snapshot for name. modelSig
// binds the snapshot to the model it was taken against (empty skips the
// binding). A payload that is not valid JSON is refused here, not written
// as a snapshot that can never load.
func (s *Store) Save(name, modelSig string, payload []byte) error {
	data, err := encodeEnvelope(name, modelSig, payload)
	if err != nil {
		return err
	}
	dst := s.Path(name)
	tmp, err := os.CreateTemp(s.dir, "."+filepath.Base(dst)+".tmp-*")
	if err != nil {
		return fmt.Errorf("persist: create temp snapshot: %w", err)
	}
	tmpName := tmp.Name()
	defer os.Remove(tmpName) // no-op after a successful rename
	if _, err := tmp.Write(data); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: write snapshot: %w", err)
	}
	if err := tmp.Sync(); err != nil {
		tmp.Close()
		return fmt.Errorf("persist: fsync snapshot: %w", err)
	}
	if err := tmp.Close(); err != nil {
		return fmt.Errorf("persist: close snapshot: %w", err)
	}
	if err := os.Rename(tmpName, dst); err != nil {
		return fmt.Errorf("persist: publish snapshot: %w", err)
	}
	syncDir(s.dir)
	return nil
}

// syncDir fsyncs a directory so the rename itself is durable. Some
// platforms (and some filesystems) refuse to fsync a directory handle;
// that is a durability nicety lost, not a correctness failure, so
// errors are ignored.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// Load reads, validates, and returns the payload of the snapshot for
// name. A modelSig mismatch (both sides non-empty) returns
// ErrForeignModel; checksum or decode failures return ErrCorrupt; a
// missing file returns the underlying fs.ErrNotExist.
func (s *Store) Load(name, modelSig string) ([]byte, error) {
	data, err := os.ReadFile(s.Path(name))
	if err != nil {
		return nil, err
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return nil, fmt.Errorf("%w: %v", ErrCorrupt, err)
	}
	if env.Version != Version {
		return nil, fmt.Errorf("%w: got %d, want %d", ErrVersion, env.Version, Version)
	}
	if env.Name != name {
		return nil, fmt.Errorf("%w: envelope names %q, not %q", ErrCorrupt, env.Name, name)
	}
	if crc32.Checksum(env.Payload, castagnoli) != env.CRC32C {
		return nil, fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)
	}
	if modelSig != "" && env.ModelSig != "" && env.ModelSig != modelSig {
		return nil, fmt.Errorf("%w: snapshot signature %s, controller %s",
			ErrForeignModel, short(env.ModelSig), short(modelSig))
	}
	return env.Payload, nil
}

// Snapshotter is the checkpointing surface every core controller kind
// exposes: marshal the runtime state to JSON, restore it from JSON with
// the controller's own validation. persist operates on this interface
// only — it never knows which controller kind stands behind a snapshot.
type Snapshotter interface {
	MarshalState() ([]byte, error)
	RestoreStateJSON(data []byte) error
}

// SaveFrom snapshots src's current state under name (see Save for the
// crash-safe write protocol and modelSig binding).
func (s *Store) SaveFrom(name, modelSig string, src Snapshotter) error {
	payload, err := src.MarshalState()
	if err != nil {
		return fmt.Errorf("persist: marshal state for %q: %w", name, err)
	}
	return s.Save(name, modelSig, payload)
}

// LoadInto loads and validates the snapshot for name and hands the
// payload to dst's own restore validation. Envelope failures carry the
// package's typed errors (ErrCorrupt, ErrVersion, ErrForeignModel);
// restore rejections are dst's descriptive errors.
func (s *Store) LoadInto(name, modelSig string, dst Snapshotter) error {
	payload, err := s.Load(name, modelSig)
	if err != nil {
		return err
	}
	return dst.RestoreStateJSON(payload)
}

// short abbreviates a signature for error messages.
func short(sig string) string {
	if len(sig) > 12 {
		return sig[:12] + "…"
	}
	return sig
}

// Signature derives a stable hex model signature from the
// JSON-marshalable parts that define a controller's identity (model,
// SLA, corpus parameters, …). Two controllers built from the same
// calibration and configuration produce the same signature; anything
// else is a foreign model.
func Signature(parts ...any) (string, error) {
	h := sha256.New()
	enc := json.NewEncoder(h)
	for _, p := range parts {
		if err := enc.Encode(p); err != nil {
			return "", fmt.Errorf("persist: signature: %w", err)
		}
	}
	return hex.EncodeToString(h.Sum(nil)), nil
}
