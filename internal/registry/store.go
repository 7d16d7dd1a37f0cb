// Package registry persists user-uploaded platform definitions with
// crash-safe writes, verifies every blob's checksum on load, and serves
// them alongside the built-in Table I set behind a sharded, versioned
// in-memory index. The on-disk layout under the data directory is
//
//	blobs/<sha256-of-file-bytes>.json   committed envelopes
//	quarantine/<name>(.reason)          blobs that failed verification
//	tmp/                                in-flight writes (never committed)
//
// A blob is an envelope: format marker, platform ID, monotonic version,
// the SHA-256 of the canonical platform bytes (the ETag basis), and the
// canonical platform JSON itself — or a tombstone recording a deletion.
// The blob's own file name is the SHA-256 of the complete envelope
// bytes, so any torn or bit-flipped file is detectable without trusting
// its contents.
package registry

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// envelopeFormat is bumped only on incompatible schema changes; blobs
// with an unknown format are quarantined, never guessed at.
const envelopeFormat = 1

// ErrCrashed is returned by the write path when an injected crash point
// fires. The write is abandoned exactly as a real crash would leave it:
// whatever bytes already reached disk stay there for recovery to judge.
var ErrCrashed = errors.New("registry: injected crash")

// Crash-point names, in write-path order. A crashAt hook returning true
// for one of these abandons the commit at that instant.
const (
	crashTmpCreated = "tmp-created" // temp file exists, zero bytes written
	crashTmpPartial = "tmp-partial" // half the envelope written, no fsync
	crashTmpWritten = "tmp-written" // all bytes written, no fsync
	crashTmpSynced  = "tmp-synced"  // file fsynced, not yet renamed
	crashRenamed    = "renamed"     // renamed into blobs/, dir not fsynced
)

// envelope is the on-disk record. Platform holds the canonical JSON
// produced by machine.Canonical at upload time; SHA256 is the hex
// digest of exactly those bytes. Tombstones set Deleted and omit both.
type envelope struct {
	Format   int             `json:"format"`
	ID       string          `json:"id"`
	Version  uint64          `json:"version"`
	SHA256   string          `json:"sha256,omitempty"`
	Deleted  bool            `json:"deleted,omitempty"`
	Platform json.RawMessage `json:"platform,omitempty"`
}

// store owns the data directory. It knows nothing about sharding or
// builtins — it commits envelopes atomically and replays them.
type store struct {
	dir string

	// crashAt, when non-nil, is consulted at each named crash point;
	// returning true abandons the write with ErrCrashed. Test-only.
	crashAt func(step string) bool
}

func (s *store) blobsDir() string      { return filepath.Join(s.dir, "blobs") }
func (s *store) quarantineDir() string { return filepath.Join(s.dir, "quarantine") }
func (s *store) tmpDir() string        { return filepath.Join(s.dir, "tmp") }

func newStore(dir string) (*store, error) {
	s := &store{dir: dir}
	for _, d := range []string{dir, s.blobsDir(), s.quarantineDir(), s.tmpDir()} {
		if err := os.MkdirAll(d, 0o755); err != nil {
			return nil, fmt.Errorf("registry: creating %s: %w", d, err)
		}
	}
	return s, nil
}

func (s *store) crash(step string) bool {
	return s.crashAt != nil && s.crashAt(step)
}

// syncDir fsyncs a directory so a completed rename is durable.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	if err := d.Sync(); err != nil {
		_ = d.Close()
		return err
	}
	return d.Close()
}

// writeEnvelope commits env durably: marshal, stream to a temp file,
// fsync the file, rename it to its content-addressed name under blobs/,
// and fsync the directory. A crash (real or injected) at any point
// leaves either the complete committed blob or debris that recovery
// discards — never a half-visible entry.
func (s *store) writeEnvelope(env *envelope) (string, error) {
	data, err := json.Marshal(env)
	if err != nil {
		return "", fmt.Errorf("registry: encoding envelope: %w", err)
	}
	sum := sha256.Sum256(data)
	name := hex.EncodeToString(sum[:]) + ".json"
	tmpPath := filepath.Join(s.tmpDir(), name+".partial")

	f, err := os.OpenFile(tmpPath, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return "", fmt.Errorf("registry: creating temp blob: %w", err)
	}
	if s.crash(crashTmpCreated) {
		_ = f.Close()
		return "", ErrCrashed
	}
	half := len(data) / 2
	if _, err := f.Write(data[:half]); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("registry: writing temp blob: %w", err)
	}
	if s.crash(crashTmpPartial) {
		_ = f.Close()
		return "", ErrCrashed
	}
	if _, err := f.Write(data[half:]); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("registry: writing temp blob: %w", err)
	}
	if s.crash(crashTmpWritten) {
		_ = f.Close()
		return "", ErrCrashed
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return "", fmt.Errorf("registry: syncing temp blob: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("registry: closing temp blob: %w", err)
	}
	if s.crash(crashTmpSynced) {
		return "", ErrCrashed
	}
	if err := os.Rename(tmpPath, filepath.Join(s.blobsDir(), name)); err != nil {
		return "", fmt.Errorf("registry: committing blob: %w", err)
	}
	if s.crash(crashRenamed) {
		// The rename happened; whether it survives a real power cut
		// before the directory fsync is up to the filesystem. Recovery
		// accepts either outcome, so the injected crash models the
		// worst case: committed data, unsynced metadata.
		return "", ErrCrashed
	}
	if err := syncDir(s.blobsDir()); err != nil {
		return "", fmt.Errorf("registry: syncing blob dir: %w", err)
	}
	return name, nil
}

// remove deletes a superseded blob. Best-effort by contract: a stale
// blob left behind is re-pruned on the next recovery scan.
func (s *store) remove(name string) error {
	if err := os.Remove(filepath.Join(s.blobsDir(), name)); err != nil && !os.IsNotExist(err) {
		return err
	}
	return nil
}

// quarantine moves a blob out of blobs/ and records why. The move uses
// rename so the evidence is preserved byte-for-byte for post-mortems.
func (s *store) quarantine(name, reason string) error {
	dst := filepath.Join(s.quarantineDir(), name)
	if err := os.Rename(filepath.Join(s.blobsDir(), name), dst); err != nil {
		return fmt.Errorf("registry: quarantining %s: %w", name, err)
	}
	if err := os.WriteFile(dst+".reason", []byte(reason+"\n"), 0o644); err != nil {
		return fmt.Errorf("registry: writing quarantine reason for %s: %w", name, err)
	}
	return nil
}

// recoveredBlob is one verified envelope from the startup scan.
type recoveredBlob struct {
	name string
	env  envelope
}

// RecoveryStats summarizes the startup scan.
type RecoveryStats struct {
	Loaded      int // verified envelopes adopted into the index
	Tombstones  int // deletions replayed (their version floor is kept)
	Quarantined int // corrupt or inadmissible blobs moved aside
	Pruned      int // superseded blobs deleted
	TmpCleaned  int // abandoned in-flight temp files removed
}

// isBlobName reports whether name looks like a committed blob:
// 64 hex characters plus ".json".
func isBlobName(name string) bool {
	const hexLen = sha256.Size * 2
	if len(name) != hexLen+len(".json") || !strings.HasSuffix(name, ".json") {
		return false
	}
	for i := 0; i < hexLen; i++ {
		c := name[i]
		if (c < '0' || c > '9') && (c < 'a' || c > 'f') {
			return false
		}
	}
	return true
}

// verifyBlob checks one file end to end and returns the reason it is
// inadmissible, or "" if it verifies. validate is the caller's semantic
// check on the decoded envelope (platform parses, ID admissible, …).
func verifyBlob(name string, data []byte, env *envelope, validate func(*envelope) string) string {
	sum := sha256.Sum256(data)
	if hex.EncodeToString(sum[:])+".json" != name {
		return "content hash does not match blob name (truncated or corrupted)"
	}
	dec := json.NewDecoder(strings.NewReader(string(data)))
	dec.DisallowUnknownFields()
	if err := dec.Decode(env); err != nil {
		return "envelope does not parse: " + err.Error()
	}
	if _, err := dec.Token(); !errors.Is(err, io.EOF) {
		return "trailing data after envelope"
	}
	if env.Format != envelopeFormat {
		return fmt.Sprintf("unsupported envelope format %d", env.Format)
	}
	if env.Version == 0 {
		return "envelope version must be >= 1"
	}
	if env.Deleted {
		if len(env.Platform) != 0 || env.SHA256 != "" {
			return "tombstone carries platform data"
		}
	} else {
		psum := sha256.Sum256(env.Platform)
		if hex.EncodeToString(psum[:]) != env.SHA256 {
			return "platform bytes do not match recorded sha256"
		}
	}
	return validate(env)
}

// recoverScan replays the data directory: abandoned temp files are
// removed, every blob is re-verified (name hash, envelope schema, inner
// platform hash, caller validation), failures are quarantined with a
// reason file, and the survivors are returned in deterministic name
// order for the registry to index.
func (s *store) recoverScan(validate func(*envelope) string) ([]recoveredBlob, RecoveryStats, error) {
	var stats RecoveryStats

	tmps, err := os.ReadDir(s.tmpDir())
	if err != nil {
		return nil, stats, fmt.Errorf("registry: scanning tmp dir: %w", err)
	}
	for _, e := range tmps {
		if err := os.Remove(filepath.Join(s.tmpDir(), e.Name())); err != nil {
			return nil, stats, fmt.Errorf("registry: removing abandoned temp file: %w", err)
		}
		stats.TmpCleaned++
	}

	entries, err := os.ReadDir(s.blobsDir())
	if err != nil {
		return nil, stats, fmt.Errorf("registry: scanning blob dir: %w", err)
	}
	names := make([]string, 0, len(entries))
	for _, e := range entries {
		if e.IsDir() {
			continue
		}
		names = append(names, e.Name())
	}
	sort.Strings(names)

	var out []recoveredBlob
	for _, name := range names {
		if !isBlobName(name) {
			if err := s.quarantine(name, "unrecognized blob name"); err != nil {
				return nil, stats, err
			}
			stats.Quarantined++
			continue
		}
		data, err := os.ReadFile(filepath.Join(s.blobsDir(), name))
		if err != nil {
			return nil, stats, fmt.Errorf("registry: reading blob %s: %w", name, err)
		}
		var env envelope
		if reason := verifyBlob(name, data, &env, validate); reason != "" {
			if err := s.quarantine(name, reason); err != nil {
				return nil, stats, err
			}
			stats.Quarantined++
			continue
		}
		out = append(out, recoveredBlob{name: name, env: env})
	}
	return out, stats, nil
}
