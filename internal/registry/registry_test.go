package registry

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"archline/internal/machine"
)

// testPlatform returns a valid custom platform description with the
// given id and a content knob so tests can produce distinct versions.
func testPlatform(t *testing.T, id string, gflops float64) *machine.Platform {
	t.Helper()
	src := fmt.Sprintf(`{
		"id": %q, "name": "Test %s", "class": "mini", "cache_line_bytes": 64,
		"vendor_single_gflops": %g, "vendor_mem_gbs": 20, "idle_w": 3,
		"sustained_single_gflops": %g, "sustained_mem_gbs": 10,
		"eps_s_pj_per_flop": 40, "eps_mem_pj_per_byte": 300,
		"pi1_w": 2, "delta_pi_w": 4
	}`, id, id, gflops*1.25, gflops)
	p, err := machine.FromJSON(strings.NewReader(src))
	if err != nil {
		t.Fatalf("test platform %s: %v", id, err)
	}
	return p
}

func mustOpen(t *testing.T, dir string) *Registry {
	t.Helper()
	r, err := Open(dir, 4)
	if err != nil {
		t.Fatalf("Open(%s): %v", dir, err)
	}
	return r
}

func TestOpenSeedsBuiltins(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	all := machine.All()
	list := r.List()
	if len(list) != len(all) {
		t.Fatalf("List() = %d entries, want %d builtins", len(list), len(all))
	}
	for i := 1; i < len(list); i++ {
		if list[i-1].ID >= list[i].ID {
			t.Fatal("List() not sorted by ID")
		}
	}
	for _, p := range all {
		e, err := r.Get(string(p.ID))
		if err != nil {
			t.Fatalf("Get(%s): %v", p.ID, err)
		}
		if !e.Builtin || e.Version != 1 {
			t.Errorf("%s: Builtin=%v Version=%d, want builtin v1", p.ID, e.Builtin, e.Version)
		}
		canon, err := machine.Canonical(p)
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(e.Canonical, canon) {
			t.Errorf("%s: registry canonical bytes differ from machine.Canonical", p.ID)
		}
		if e.ETag != etagFor(canon) {
			t.Errorf("%s: ETag %s does not hash the canonical bytes", p.ID, e.ETag)
		}
	}
	if _, err := r.Get("no-such-platform"); !errors.Is(err, ErrNotFound) {
		t.Errorf("Get(missing) = %v, want ErrNotFound", err)
	}
}

func TestBuiltinsReadOnly(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	builtin := string(machine.All()[0].ID)
	if _, _, err := r.Put(testPlatform(t, builtin, 10)); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Put(builtin id) = %v, want ErrReadOnly", err)
	}
	if err := r.Delete(builtin); !errors.Is(err, ErrReadOnly) {
		t.Errorf("Delete(builtin id) = %v, want ErrReadOnly", err)
	}
}

func TestPutPersistsAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir)
	e1, outcome, err := r.Put(testPlatform(t, "dev-board", 10))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PutCreated || e1.Version != 1 {
		t.Fatalf("first Put: outcome=%v version=%d, want created v1", outcome, e1.Version)
	}
	// Pin the exact format: every server cache key embeds it.
	if e1.CacheKey() != "id:dev-board@v1" {
		t.Fatalf("CacheKey() = %q, want id:dev-board@v1", e1.CacheKey())
	}

	r2 := mustOpen(t, dir)
	if r2.Recovery().Loaded != 1 {
		t.Fatalf("reopen Recovery() = %+v, want Loaded=1", r2.Recovery())
	}
	e2, err := r2.Get("dev-board")
	if err != nil {
		t.Fatal(err)
	}
	if e2.Version != e1.Version || e2.ETag != e1.ETag || !bytes.Equal(e2.Canonical, e1.Canonical) {
		t.Error("recovered entry differs from the committed one")
	}
	if e2.Builtin {
		t.Error("recovered upload marked builtin")
	}
	// The recovered platform drives the model identically.
	if e2.Platform.Single.AvgPowerAt(4) <= 0 {
		t.Error("recovered platform fails model evaluation")
	}
}

func TestPutIdempotentAndVersioned(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	e1, _, err := r.Put(testPlatform(t, "dev-board", 10))
	if err != nil {
		t.Fatal(err)
	}
	// Byte-identical content: no version bump.
	e2, outcome, err := r.Put(testPlatform(t, "dev-board", 10))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PutUnchanged || e2.Version != e1.Version || e2.ETag != e1.ETag {
		t.Fatalf("idempotent re-upload: outcome=%v version=%d", outcome, e2.Version)
	}
	// New content: version bump, so a new cache key.
	e3, outcome, err := r.Put(testPlatform(t, "dev-board", 20))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PutUpdated || e3.Version != 2 || e3.ETag == e1.ETag || e3.CacheKey() == e1.CacheKey() {
		t.Fatalf("re-upload: outcome=%v version=%d key=%s", outcome, e3.Version, e3.CacheKey())
	}
	if st := r.Stats(); st.Uploads != 2 {
		t.Errorf("Stats = %+v, want 2 uploads", st)
	}
}

func TestDeleteTombstoneAndVersionFloor(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir)
	if _, _, err := r.Put(testPlatform(t, "dev-board", 10)); err != nil {
		t.Fatal(err)
	}
	if err := r.Delete("dev-board"); err != nil {
		t.Fatal(err)
	}
	if _, err := r.Get("dev-board"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after delete = %v, want ErrNotFound", err)
	}
	if err := r.Delete("dev-board"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("double delete = %v, want ErrNotFound", err)
	}

	// The tombstone survives restart...
	r2 := mustOpen(t, dir)
	if _, err := r2.Get("dev-board"); !errors.Is(err, ErrNotFound) {
		t.Fatalf("Get after reopen = %v, want ErrNotFound", err)
	}
	if r2.Recovery().Tombstones != 1 {
		t.Errorf("Recovery() = %+v, want Tombstones=1", r2.Recovery())
	}
	// ...and holds the version floor: re-creation starts above every
	// version any cache has ever seen (v1 upload, v2 tombstone → v3).
	e, outcome, err := r2.Put(testPlatform(t, "dev-board", 30))
	if err != nil {
		t.Fatal(err)
	}
	if outcome != PutCreated || e.Version != 3 {
		t.Fatalf("re-create after delete: outcome=%v version=%d, want created v3", outcome, e.Version)
	}
}

// TestCrashConsistency is the injected-failure harness: one committed
// platform, then a second upload crashed at each point of the
// write path in turn. After every crash the registry must reopen with
// the committed platform intact; the interrupted upload is visible only
// if the crash hit after the rename (the commit point), and in-flight
// debris is cleaned, never quarantined as corruption.
func TestCrashConsistency(t *testing.T) {
	steps := []struct {
		step      string
		committed bool // is the interrupted upload durable?
	}{
		{crashTmpCreated, false},
		{crashTmpPartial, false},
		{crashTmpWritten, false},
		{crashTmpSynced, false},
		{crashRenamed, true},
	}
	for _, tc := range steps {
		t.Run(tc.step, func(t *testing.T) {
			dir := t.TempDir()
			r := mustOpen(t, dir)
			if _, _, err := r.Put(testPlatform(t, "committed", 10)); err != nil {
				t.Fatal(err)
			}
			r.store.crashAt = func(step string) bool { return step == tc.step }
			_, _, err := r.Put(testPlatform(t, "doomed", 20))
			if !errors.Is(err, ErrCrashed) {
				t.Fatalf("crashed Put = %v, want ErrCrashed", err)
			}

			r2 := mustOpen(t, dir)
			if _, err := r2.Get("committed"); err != nil {
				t.Fatalf("committed platform lost after crash at %s: %v", tc.step, err)
			}
			_, err = r2.Get("doomed")
			if tc.committed && err != nil {
				t.Fatalf("post-rename crash lost the committed blob: %v", err)
			}
			if !tc.committed && !errors.Is(err, ErrNotFound) {
				t.Fatalf("pre-rename crash leaked a half-written platform: %v", err)
			}
			stats := r2.Recovery()
			if stats.Quarantined != 0 {
				t.Errorf("crash debris quarantined as corruption: %+v", stats)
			}
			wantTmp := 0
			if tc.step != crashRenamed {
				wantTmp = 1 // the abandoned temp file
			}
			if stats.TmpCleaned != wantTmp {
				t.Errorf("TmpCleaned = %d, want %d (%+v)", stats.TmpCleaned, wantTmp, stats)
			}
			// And the store still works after recovery.
			if _, _, err := r2.Put(testPlatform(t, "after", 30)); err != nil {
				t.Fatalf("Put after recovery: %v", err)
			}
		})
	}
}

// TestCrashDuringReuploadPrunesSuperseded: a crash after rename but
// before the old blob is pruned leaves two versions of one ID on disk.
// Recovery must adopt the higher version and prune the stale blob.
func TestCrashDuringReuploadPrunesSuperseded(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir)
	if _, _, err := r.Put(testPlatform(t, "dev-board", 10)); err != nil {
		t.Fatal(err)
	}
	r.store.crashAt = func(step string) bool { return step == crashRenamed }
	if _, _, err := r.Put(testPlatform(t, "dev-board", 20)); !errors.Is(err, ErrCrashed) {
		t.Fatal("expected injected crash")
	}
	blobs, err := os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 2 {
		t.Fatalf("expected both versions on disk before recovery, found %d blobs", len(blobs))
	}

	r2 := mustOpen(t, dir)
	e, err := r2.Get("dev-board")
	if err != nil {
		t.Fatal(err)
	}
	if e.Version != 2 {
		t.Fatalf("recovered version %d, want the re-uploaded v2", e.Version)
	}
	if r2.Recovery().Pruned != 1 {
		t.Errorf("Recovery() = %+v, want Pruned=1", r2.Recovery())
	}
	blobs, err = os.ReadDir(filepath.Join(dir, "blobs"))
	if err != nil {
		t.Fatal(err)
	}
	if len(blobs) != 1 {
		t.Errorf("superseded blob not pruned: %d blobs remain", len(blobs))
	}
}

// plantBlob writes raw bytes into blobs/ under their content-addressed
// name, simulating a committed blob with arbitrary contents.
func plantBlob(t *testing.T, dir string, data []byte) string {
	t.Helper()
	sum := sha256.Sum256(data)
	name := hex.EncodeToString(sum[:]) + ".json"
	if err := os.MkdirAll(filepath.Join(dir, "blobs"), 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "blobs", name), data, 0o644); err != nil {
		t.Fatal(err)
	}
	return name
}

func TestRecoveryQuarantinesCorruption(t *testing.T) {
	dir := t.TempDir()
	r := mustOpen(t, dir)
	if _, _, err := r.Put(testPlatform(t, "good", 10)); err != nil {
		t.Fatal(err)
	}

	// (a) A blob whose bytes do not hash to its name: bit rot.
	rotName := "deadbeef" + strings.Repeat("00", 28) + ".json"
	if err := os.WriteFile(filepath.Join(dir, "blobs", rotName), []byte(`{"format":1}`), 0o644); err != nil {
		t.Fatal(err)
	}
	// (b) A file that is not a blob at all.
	if err := os.WriteFile(filepath.Join(dir, "blobs", "notes.txt"), []byte("hi"), 0o644); err != nil {
		t.Fatal(err)
	}
	// (c) A well-hashed envelope whose platform fails strict validation.
	env := map[string]any{
		"format": 1, "id": "evil", "version": 1,
		"sha256":   hex.EncodeToString(sumOf(`{"id":"evil"}`)),
		"platform": json.RawMessage(`{"id":"evil"}`),
	}
	envBytes, err := json.Marshal(env)
	if err != nil {
		t.Fatal(err)
	}
	plantBlob(t, dir, envBytes)
	// (d) A well-hashed envelope shadowing a built-in ID.
	builtinID := string(machine.All()[0].ID)
	canon, err := machine.Canonical(machine.All()[0])
	if err != nil {
		t.Fatal(err)
	}
	shadow, err := json.Marshal(map[string]any{
		"format": 1, "id": builtinID, "version": 9,
		"sha256":   hex.EncodeToString(sumOf(string(canon))),
		"platform": json.RawMessage(canon),
	})
	if err != nil {
		t.Fatal(err)
	}
	plantBlob(t, dir, shadow)
	// (e) The good blob again, well hashed, with a stray '}' after it.
	good, err := os.ReadFile(filepath.Join(dir, "blobs", r.shardFor("good").blobs["good"]))
	if err != nil {
		t.Fatal(err)
	}
	plantBlob(t, dir, append(good, '}'))

	r2 := mustOpen(t, dir)
	stats := r2.Recovery()
	if stats.Quarantined != 5 || stats.Loaded != 1 {
		t.Fatalf("Recovery() = %+v, want Quarantined=5 Loaded=1", stats)
	}
	if _, err := r2.Get("good"); err != nil {
		t.Errorf("healthy platform lost during quarantine sweep: %v", err)
	}
	if _, err := r2.Get("evil"); !errors.Is(err, ErrNotFound) {
		t.Errorf("invalid platform served: %v", err)
	}
	if e, err := r2.Get(builtinID); err != nil || !e.Builtin || e.Version != 1 {
		t.Errorf("builtin shadowed: %+v, %v", e, err)
	}
	// Every quarantined blob has a reason file beside it.
	qdir := filepath.Join(dir, "quarantine")
	entries, err := os.ReadDir(qdir)
	if err != nil {
		t.Fatal(err)
	}
	var blobs, reasons int
	for _, e := range entries {
		if strings.HasSuffix(e.Name(), ".reason") {
			reasons++
			data, err := os.ReadFile(filepath.Join(qdir, e.Name()))
			if err != nil || len(bytes.TrimSpace(data)) == 0 {
				t.Errorf("%s: empty or unreadable reason (%v)", e.Name(), err)
			}
		} else {
			blobs++
		}
	}
	if blobs != 5 || reasons != 5 {
		t.Errorf("quarantine holds %d blobs / %d reasons, want 5 / 5", blobs, reasons)
	}
	if st := r2.Stats(); st.Quarantined != 5 {
		t.Errorf("Stats().Quarantined = %d, want 5", st.Quarantined)
	}
}

func sumOf(s string) []byte {
	sum := sha256.Sum256([]byte(s))
	return sum[:]
}

// FuzzVerifyBlob feeds arbitrary bytes, stored under their own content
// hash so the name check passes, through the recovery scan's
// verification. It must never panic, and every live envelope it admits
// must decode: replay treats a decode failure after verification as a
// bug. Seeds: the blobs a Put, Delete, Put sequence commits, and junk.
func FuzzVerifyBlob(f *testing.F) {
	r, err := OpenMemory(0)
	if err != nil {
		f.Fatal(err)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		name := hex.EncodeToString(sumOf(string(data))) + ".json"
		var env envelope
		if verifyBlob(name, data, &env, r.admissible) != "" || env.Deleted {
			return
		}
		if _, err := machine.FromJSON(bytes.NewReader(env.Platform)); err != nil {
			t.Fatalf("admitted %q, whose platform fails decode: %v", data, err)
		}
	})
}

// TestReuploadStorm is the -race proof that no reader ever observes a
// mixed old/new platform: writers hammer re-uploads of one ID while
// readers continuously resolve it and check that every observed entry
// is internally consistent (ETag hashes the canonical bytes, canonical
// bytes decode to the served platform's sustained rate) and versions
// are monotonic per reader.
func TestReuploadStorm(t *testing.T) {
	r := mustOpen(t, t.TempDir())
	if _, _, err := r.Put(testPlatform(t, "storm", 1)); err != nil {
		t.Fatal(err)
	}

	const writers, readers, rounds = 4, 4, 25
	contents := make([]*machine.Platform, writers)
	for i := range contents {
		contents[i] = testPlatform(t, "storm", float64(10*(i+1)))
	}
	var writerWG, readerWG sync.WaitGroup
	errc := make(chan error, writers+readers)
	stop := make(chan struct{})
	for w := 0; w < writers; w++ {
		writerWG.Add(1)
		go func(w int) {
			defer writerWG.Done()
			for i := 0; i < rounds; i++ {
				if _, _, err := r.Put(contents[(w+i)%writers]); err != nil {
					errc <- err
					return
				}
			}
		}(w)
	}
	for g := 0; g < readers; g++ {
		readerWG.Add(1)
		go func() {
			defer readerWG.Done()
			var lastVersion uint64
			for {
				select {
				case <-stop:
					return
				default:
				}
				e, err := r.Get("storm")
				if err != nil {
					errc <- err
					return
				}
				if e.Version < lastVersion {
					errc <- fmt.Errorf("version went backwards: %d after %d", e.Version, lastVersion)
					return
				}
				lastVersion = e.Version
				if e.ETag != etagFor(e.Canonical) {
					errc <- errors.New("torn entry: ETag does not hash Canonical")
					return
				}
				p, err := machine.FromJSON(bytes.NewReader(e.Canonical))
				if err != nil {
					errc <- fmt.Errorf("torn entry: canonical bytes invalid: %w", err)
					return
				}
				if p.Sustained.SingleRate != e.Platform.Sustained.SingleRate {
					errc <- errors.New("torn entry: canonical bytes disagree with served platform")
					return
				}
			}
		}()
	}
	writerWG.Wait()
	close(stop)
	readerWG.Wait()
	close(errc)
	for err := range errc {
		if err != nil {
			t.Fatal(err)
		}
	}
}

// shardIndex reports which of r's shards owns id.
func shardIndex(t *testing.T, r *Registry, id string) int {
	t.Helper()
	sh := r.shardFor(id)
	for i, s := range r.shards {
		if s == sh {
			return i
		}
	}
	t.Fatalf("%s: shardFor returned a shard the registry does not hold", id)
	return -1
}

func TestShardForDeterministicAndSpread(t *testing.T) {
	a, err := OpenMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	b, err := OpenMemory(8)
	if err != nil {
		t.Fatal(err)
	}
	for _, id := range []string{"intel-i7-3820", "gtx-titan", "dev-board", "a", "zz-top"} {
		if sa, sb := shardIndex(t, a, id), shardIndex(t, b, id); sa != sb {
			t.Errorf("%s: shard differs across identical registries (%d vs %d)", id, sa, sb)
		}
	}
	// 4096 sequential keys reach every shard.
	counts := make([]int, 8)
	for i := 0; i < 4096; i++ {
		counts[shardIndex(t, a, fmt.Sprintf("key-%d", i))]++
	}
	for s, c := range counts {
		if c == 0 {
			t.Errorf("shard %d received no keys out of 4096", s)
		}
	}
}

func TestOpenValidation(t *testing.T) {
	if _, err := Open("", 4); err == nil {
		t.Error("Open with empty dir should error")
	}
	// shards <= 0 falls back to the default.
	r := mustOpen(t, t.TempDir())
	if got := len(r.shards); got != 4 {
		t.Errorf("shard count = %d, want 4", got)
	}
	r2, err := Open(t.TempDir(), 0)
	if err != nil {
		t.Fatal(err)
	}
	if got := len(r2.shards); got != DefaultShards {
		t.Errorf("default shard count = %d, want %d", got, DefaultShards)
	}
	// Occupancy sums to the builtin count on a fresh registry.
	var sum int
	for _, sh := range r2.shards {
		sum += len(sh.entries)
	}
	if sum != len(machine.All()) {
		t.Errorf("shard occupancy sums to %d, want %d", sum, len(machine.All()))
	}
}
