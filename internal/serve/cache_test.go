package serve

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io/fs"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"
	"time"

	"elag/internal/artifact"
	"elag/internal/chaosinject"
)

// corruptOneArtifact flips one payload byte of the single artifact file
// under dir and returns its path.
func corruptOneArtifact(t *testing.T, dir string) string {
	t.Helper()
	var files []string
	err := filepath.WalkDir(dir, func(path string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if !d.IsDir() && !strings.HasPrefix(d.Name(), ".tmp") {
			files = append(files, path)
		}
		return nil
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(files) != 1 {
		t.Fatalf("want exactly 1 artifact on disk, found %d: %v", len(files), files)
	}
	data, err := os.ReadFile(files[0])
	if err != nil {
		t.Fatal(err)
	}
	// Flip a byte well past the 40-byte header, inside the payload.
	data[len(data)-1] ^= 0xff
	if err := os.WriteFile(files[0], data, 0o644); err != nil {
		t.Fatal(err)
	}
	return files[0]
}

func fileExists(path string) bool {
	_, err := os.Stat(path)
	return err == nil
}

// memStore builds an in-memory artifact store (no disk tier) for cache
// tests that don't exercise persistence.
func memStore(t *testing.T) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(artifact.Options{})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// diskStore builds a two-tier store rooted in dir.
func diskStore(t *testing.T, dir string) *artifact.Store {
	t.Helper()
	st, err := artifact.Open(artifact.Options{Dir: dir})
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// resultBytes extracts the raw "result" value of a terminal status body,
// for byte-identity comparisons across jobs.
func resultBytes(t *testing.T, raw []byte) []byte {
	t.Helper()
	var doc struct {
		State  string          `json:"state"`
		Result json.RawMessage `json:"result"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatalf("decode status: %v\n%s", err, raw)
	}
	if doc.State != StateDone {
		t.Fatalf("job not done: %s\n%s", doc.State, raw)
	}
	if len(doc.Result) == 0 {
		t.Fatalf("done job has no result:\n%s", raw)
	}
	return doc.Result
}

// TestCacheHitByteIdentical: the second identical submission is served
// from the store without executing, and its result bytes equal the first
// run's exactly.
func TestCacheHitByteIdentical(t *testing.T) {
	check := leakCheck(t)
	s, ts := testService(t, Options{Workers: 2, Cache: memStore(t)})

	spec := simSpec(quickSrc, 100_000)
	resp1, raw1 := postJob(t, ts, spec, "?wait=1")
	if resp1.StatusCode != http.StatusOK {
		t.Fatalf("cold submit: %d\n%s", resp1.StatusCode, raw1)
	}
	resp2, raw2 := postJob(t, ts, spec, "?wait=1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm submit: %d\n%s", resp2.StatusCode, raw2)
	}
	r1, r2 := resultBytes(t, raw1), resultBytes(t, raw2)
	if !bytes.Equal(r1, r2) {
		t.Errorf("cached result differs from computed result:\ncold: %s\nwarm: %s", r1, r2)
	}
	if h, m := s.stats.CacheHits.Value(), s.stats.CacheMisses.Value(); h != 1 || m != 1 {
		t.Errorf("cache counters: hits=%d misses=%d, want 1/1", h, m)
	}
	// The two status documents differ only in job ID.
	if bytes.Equal(raw1, raw2) {
		t.Errorf("distinct jobs returned identical status documents (IDs must differ)")
	}
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestCacheMissesOnSpecChange: specs that describe different computations
// must never share an artifact.
func TestCacheMissesOnSpecChange(t *testing.T) {
	check := leakCheck(t)
	s, ts := testService(t, Options{Workers: 2, Cache: memStore(t)})

	base := simSpec(quickSrc, 100_000)
	vary := []*JobSpec{
		simSpec(quickSrc, 50_000), // fuel participates in the key
		simSpec(busySrc, 100_000), // source participates
		func() *JobSpec { sp := simSpec(quickSrc, 100_000); sp.Chunk = 4096; return sp }(),
		func() *JobSpec { sp := simSpec(quickSrc, 100_000); sp.Configs = sp.Configs[:1]; return sp }(),
	}
	for i, sp := range vary {
		if ResultKey(sp) == ResultKey(base) {
			t.Errorf("variant %d: key collision with base spec", i)
		}
	}
	// DeadlineMS changes whether a result exists, not its bytes.
	withDeadline := simSpec(quickSrc, 100_000)
	withDeadline.DeadlineMS = 30_000
	if ResultKey(withDeadline) != ResultKey(base) {
		t.Errorf("deadline_ms must not participate in the result key")
	}

	if resp, raw := postJob(t, ts, base, "?wait=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit: %d\n%s", resp.StatusCode, raw)
	}
	if resp, raw := postJob(t, ts, vary[0], "?wait=1"); resp.StatusCode != http.StatusOK {
		t.Fatalf("submit variant: %d\n%s", resp.StatusCode, raw)
	}
	if h, m := s.stats.CacheHits.Value(), s.stats.CacheMisses.Value(); h != 0 || m != 2 {
		t.Errorf("cache counters: hits=%d misses=%d, want 0/2", h, m)
	}
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestSingleFlightCoalesce: N identical concurrent submissions execute the
// pipeline exactly once. Chaos slows the leader's chunks so the followers
// reliably arrive while it is in flight; the counter algebra
// accepted = hits + misses + coalesced must hold regardless of timing.
func TestSingleFlightCoalesce(t *testing.T) {
	check := leakCheck(t)
	defer chaosinject.Reset()
	chaosinject.Reset()
	if err := chaosinject.Parse("slow-chunk=30ms"); err != nil {
		t.Fatal(err)
	}

	store := memStore(t)
	s, ts := testService(t, Options{Workers: 4, Cache: store})

	const n = 6
	spec := simSpec(busySrc, 2_000_000)
	spec.Chunk = 4096 // many chunk boundaries → many slow-chunk injections

	var wg sync.WaitGroup
	results := make([][]byte, n)
	errs := make([]error, n)
	for i := 0; i < n; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			resp, raw := postJob(t, ts, spec, "?wait=1")
			if resp.StatusCode != http.StatusOK {
				errs[i] = fmt.Errorf("submit %d: status %d: %s", i, resp.StatusCode, raw)
				return
			}
			results[i] = resultBytes(t, raw)
		}(i)
	}
	wg.Wait()
	for _, err := range errs {
		if err != nil {
			t.Fatal(err)
		}
	}
	for i := 1; i < n; i++ {
		if !bytes.Equal(results[0], results[i]) {
			t.Errorf("result %d differs from result 0", i)
		}
	}

	hits := s.stats.CacheHits.Value()
	misses := s.stats.CacheMisses.Value()
	coalesced := s.stats.CacheCoalesced.Value()
	if misses != 1 {
		t.Errorf("misses = %d, want exactly 1 (the pipeline must execute once)", misses)
	}
	if hits+coalesced != n-1 {
		t.Errorf("hits(%d) + coalesced(%d) = %d, want %d", hits, coalesced, hits+coalesced, n-1)
	}
	if got := s.stats.JobsAccepted.Value(); got != hits+misses+coalesced {
		t.Errorf("admission algebra: accepted=%d, hits+misses+coalesced=%d",
			got, hits+misses+coalesced)
	}
	if st := store.Stats(); st.Puts != 1 {
		t.Errorf("store puts = %d, want 1", st.Puts)
	}
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestCoalescedFollowerHasOwnStream: a follower is a full job — its
// events endpoint delivers a terminal done frame even though no worker
// ever ran it.
func TestCoalescedFollowerHasOwnStream(t *testing.T) {
	check := leakCheck(t)
	defer chaosinject.Reset()
	chaosinject.Reset()
	if err := chaosinject.Parse("slow-chunk=30ms"); err != nil {
		t.Fatal(err)
	}

	s, ts := testService(t, Options{Workers: 2, Cache: memStore(t)})
	spec := simSpec(busySrc, 2_000_000)
	spec.Chunk = 4096

	resp, raw := postJob(t, ts, spec, "")
	if resp.StatusCode != http.StatusAccepted {
		t.Fatalf("leader submit: %d\n%s", resp.StatusCode, raw)
	}
	var leader StatusDoc
	if err := json.Unmarshal(raw, &leader); err != nil {
		t.Fatal(err)
	}
	resp2, raw2 := postJob(t, ts, spec, "")
	if resp2.StatusCode != http.StatusAccepted {
		t.Fatalf("follower submit: %d\n%s", resp2.StatusCode, raw2)
	}
	var follower StatusDoc
	if err := json.Unmarshal(raw2, &follower); err != nil {
		t.Fatal(err)
	}
	if follower.ID == leader.ID {
		t.Fatalf("follower shares the leader's job ID %s", leader.ID)
	}
	if s.stats.CacheCoalesced.Value() != 1 {
		t.Fatalf("follower was not coalesced (coalesced=%d)", s.stats.CacheCoalesced.Value())
	}

	// The follower's event stream must terminate with its own done frame.
	eresp, err := ts.Client().Get(ts.URL + "/v1/jobs/" + follower.ID + "/events")
	if err != nil {
		t.Fatal(err)
	}
	defer eresp.Body.Close()
	dec := json.NewDecoder(eresp.Body)
	deadline := time.Now().Add(30 * time.Second)
	for {
		if time.Now().After(deadline) {
			t.Fatal("no terminal frame on follower stream")
		}
		var frame struct {
			State string `json:"state"`
		}
		if err := dec.Decode(&frame); err != nil {
			t.Fatalf("follower stream decode: %v", err)
		}
		if frame.State == StateDone {
			break
		}
	}
	if doc := waitTerminal(t, ts, leader.ID); doc.State != StateDone {
		t.Fatalf("leader state %s", doc.State)
	}
	eresp.Body.Close()
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestCorruptArtifactRecovered: a corrupted on-disk artifact is detected,
// evicted, and transparently recomputed — never served.
func TestCorruptArtifactRecovered(t *testing.T) {
	check := leakCheck(t)
	dir := t.TempDir()
	spec := simSpec(quickSrc, 100_000)

	// Cold run populates the disk tier.
	var want []byte
	{
		s := New(Options{Workers: 2, Cache: diskStore(t, dir)})
		ts := httptest.NewServer(s.Handler())
		resp, raw := postJob(t, ts, spec, "?wait=1")
		if resp.StatusCode != http.StatusOK {
			t.Fatalf("cold submit: %d\n%s", resp.StatusCode, raw)
		}
		want = resultBytes(t, raw)
		s.Drain(10 * time.Second)
		ts.Close()
	}

	// Flip one payload byte in the stored artifact.
	path := corruptOneArtifact(t, dir)

	// A fresh process must detect the damage, evict the file, and
	// recompute the identical result. The direct probe shows the store's
	// side: the damaged artifact reads as a miss and leaves the disk.
	store := diskStore(t, dir)
	if _, ok := store.Get(ResultKey(spec)); ok {
		t.Fatalf("corrupted artifact was served")
	}
	if st := store.Stats(); st.Corrupt != 1 {
		t.Errorf("corrupt count = %d, want 1", st.Corrupt)
	}
	if fileExists(path) {
		t.Errorf("corrupted artifact %s was not evicted from disk", path)
	}

	s := New(Options{Workers: 2, Cache: store})
	ts := httptest.NewServer(s.Handler())
	resp, raw := postJob(t, ts, spec, "?wait=1")
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("recompute submit: %d\n%s", resp.StatusCode, raw)
	}
	if got := resultBytes(t, raw); !bytes.Equal(got, want) {
		t.Errorf("recomputed result differs:\ngot:  %s\nwant: %s", got, want)
	}
	if s.stats.CacheMisses.Value() != 1 {
		t.Errorf("corrupted artifact must be a miss, got misses=%d hits=%d",
			s.stats.CacheMisses.Value(), s.stats.CacheHits.Value())
	}

	// And the recomputed artifact serves the next submission.
	resp2, raw2 := postJob(t, ts, spec, "?wait=1")
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm submit: %d\n%s", resp2.StatusCode, raw2)
	}
	if got := resultBytes(t, raw2); !bytes.Equal(got, want) {
		t.Errorf("post-recovery cached result differs")
	}
	if s.stats.CacheHits.Value() != 1 {
		t.Errorf("post-recovery submission should hit, got hits=%d", s.stats.CacheHits.Value())
	}
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}

// TestWarmGridSpeedup is the acceptance gate: a fully cached grid job is
// byte-identical to the cold run and at least 20x faster. A grid job is
// cached whole: the cold job stores one artifact, its result, and the
// warm job stores none.
func TestWarmGridSpeedup(t *testing.T) {
	if testing.Short() {
		t.Skip("grid job in -short mode")
	}
	check := leakCheck(t)
	store := memStore(t)
	s, ts := testService(t, Options{Workers: 2, GridParallel: 2, Cache: store})

	spec := &JobSpec{Kind: KindGrid, Exp: "table2", Fuel: 2_000_000}
	coldStart := time.Now()
	resp, raw := postJob(t, ts, spec, "?wait=1")
	cold := time.Since(coldStart)
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("cold grid: %d\n%s", resp.StatusCode, raw)
	}
	coldResult := resultBytes(t, raw)
	if puts := store.Stats().Puts; puts != 1 {
		t.Errorf("cold grid job stored %d artifacts, want 1 (its whole result)", puts)
	}

	warmStart := time.Now()
	resp2, raw2 := postJob(t, ts, spec, "?wait=1")
	warm := time.Since(warmStart)
	if resp2.StatusCode != http.StatusOK {
		t.Fatalf("warm grid: %d\n%s", resp2.StatusCode, raw2)
	}
	warmResult := resultBytes(t, raw2)
	if puts := store.Stats().Puts; puts != 1 {
		t.Errorf("warm grid job stored %d artifacts, want 0", puts-1)
	}

	if !bytes.Equal(coldResult, warmResult) {
		t.Errorf("warm grid result differs from cold")
	}
	if s.stats.CacheHits.Value() != 1 {
		t.Fatalf("warm grid did not hit the cache (hits=%d)", s.stats.CacheHits.Value())
	}
	if warm*20 > cold {
		t.Errorf("warm grid %v is not >=20x faster than cold %v", warm, cold)
	}
	t.Logf("grid table2: cold %v, warm %v (%.0fx)", cold, warm, float64(cold)/float64(warm))
	s.Drain(10 * time.Second)
	ts.Close()
	check()
}
