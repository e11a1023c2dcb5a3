// The crash-safety layer of long sweeps: a content hash identifying
// the spec, an explicit trailer line closing every artifact (so a
// truncated file is detectable), and a journaled runner that appends
// each completed cell to a sidecar file and — after a crash or kill —
// skips the cells already priced. Per-cell seeds derive from the spec
// alone, so a resumed artifact is byte-identical to an uninterrupted
// run.

package scenario

import (
	"bufio"
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"os"
	"strings"
	"time"

	"pramemu/internal/buildcache"
)

// SpecHash is the canonical content hash of a sweep spec: the sha256
// (truncated to 128 bits of hex) of the defaulted spec's JSON with
// the knobs that cannot change output bytes cleared — Name labels,
// Pool only schedules. Everything else, timeouts and FailFast
// included, is hashed: equal hashes mean byte-equal artifacts, which
// makes the hash a resume guard for journals and a job ID / cache key
// for sweepd.
func SpecHash(spec Spec) (string, error) {
	s := spec.withDefaults()
	s.Name = ""
	s.Pool = 0
	b, err := json.Marshal(s)
	if err != nil {
		return "", fmt.Errorf("scenario: hashing spec: %w", err)
	}
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:16]), nil
}

// Trailer is the explicit end-of-sweep line closing every artifact.
// Its "report" discriminator keeps ReadResults (which skips all
// report rows) compatible; VerifyTrailer fails loudly when the line
// is missing, so a truncated artifact can no longer pass for a
// complete one.
type Trailer struct {
	Report   string `json:"report"` // always TrailerReport
	SpecHash string `json:"spec_hash,omitempty"`
	// Cells counts the result lines above the trailer; Errors how
	// many of them are error lines.
	Cells  int `json:"cells"`
	Errors int `json:"errors,omitempty"`
	// The build-cache observability fields, filled only on report-mode
	// runs (routebench -report stamps them from the cache's stat delta
	// over the sweep). Plain and journaled artifacts leave them empty —
	// cache activity depends on process history, and artifact bytes
	// must depend on the spec alone. BuildMS prices the topology builds
	// the sweep actually ran (cache misses), RouteMS the wall-clock of
	// the routing itself.
	CacheHits      int64   `json:"cache_hits,omitempty"`
	CacheMisses    int64   `json:"cache_misses,omitempty"`
	CacheEvictions int64   `json:"cache_evictions,omitempty"`
	BuildMS        float64 `json:"build_ms,omitempty"`
	RouteMS        float64 `json:"route_ms,omitempty"`
}

// TrailerReport is the Trailer's report-discriminator value.
const TrailerReport = "trailer"

// journalReport discriminates the sidecar journal's header line.
const journalReport = "journal"

// journalHeader is the first line of a journal sidecar: the spec hash
// it was written for, so a stale journal from a different spec is
// discarded instead of poisoning a resume.
type journalHeader struct {
	Report   string `json:"report"` // always journalReport
	SpecHash string `json:"spec_hash"`
}

// WriteArtifact writes the complete sweep artifact: one JSON line per
// result followed by the trailer. hash may be empty (stdout streams
// without a spec hash still get a verifiable trailer).
func WriteArtifact(w io.Writer, hash string, results []Result) error {
	if err := WriteJSONL(w, results); err != nil {
		return err
	}
	return WriteTrailer(w, hash, results)
}

// NewTrailer derives the trailer line for a result set. Callers that
// want the observability extras (cache stats, build/route time) fill
// them on the returned value before WriteTrailerLine — artifact
// writers use the zero extras so bytes stay spec-deterministic.
func NewTrailer(hash string, results []Result) Trailer {
	failed := 0
	for _, r := range results {
		if r.Failed() {
			failed++
		}
	}
	return Trailer{
		Report:   TrailerReport,
		SpecHash: hash,
		Cells:    len(results),
		Errors:   failed,
	}
}

// WriteTrailerLine encodes one trailer as a JSONL line.
func WriteTrailerLine(w io.Writer, t Trailer) error {
	return json.NewEncoder(w).Encode(t)
}

// WriteTrailer writes just the trailer line for the given results —
// for callers interleaving report rows between the result lines and
// the close.
func WriteTrailer(w io.Writer, hash string, results []Result) error {
	return WriteTrailerLine(w, NewTrailer(hash, results))
}

// VerifyTrailer scans an artifact for its closing trailer line and
// returns it, or an error when the artifact is truncated (no trailer,
// or lines after it). It reads the whole stream; use it on files, not
// unbounded pipes.
func VerifyTrailer(r io.Reader) (Trailer, error) {
	sc := bufio.NewScanner(r)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	var (
		last    Trailer
		found   bool
		tailing int // non-trailer lines after the trailer
	)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		if found {
			tailing++
			continue
		}
		var t Trailer
		if err := json.Unmarshal([]byte(line), &t); err == nil && t.Report == TrailerReport {
			last, found = t, true
		}
	}
	if err := sc.Err(); err != nil {
		return Trailer{}, fmt.Errorf("scenario: scanning artifact: %w", err)
	}
	if !found {
		return Trailer{}, fmt.Errorf("scenario: artifact has no trailer line — truncated or written by a pre-trailer sweep")
	}
	if tailing > 0 {
		return Trailer{}, fmt.Errorf("scenario: artifact has %d lines after its trailer", tailing)
	}
	return last, nil
}

// DiffArtifacts compares two trailer-closed sweep artifacts byte for
// byte — the shared core of routebench -reportdiff and sweepd's
// /sweeps/{id}/diff endpoint. Both sides must carry the end-of-sweep
// trailer (a truncated side errors, named by its label). Identical
// artifacts return ("", true, nil); drifting ones return (detail,
// false, nil) with the detail naming the first line that differs.
func DiffArtifacts(aName string, a []byte, bName string, b []byte) (string, bool, error) {
	if _, err := VerifyTrailer(bytes.NewReader(a)); err != nil {
		return "", false, fmt.Errorf("%s: %w", aName, err)
	}
	if _, err := VerifyTrailer(bytes.NewReader(b)); err != nil {
		return "", false, fmt.Errorf("%s: %w", bName, err)
	}
	if bytes.Equal(a, b) {
		return "", true, nil
	}
	al := strings.Split(string(a), "\n")
	bl := strings.Split(string(b), "\n")
	for i := 0; i < len(al) || i < len(bl); i++ {
		la, lb := "<absent>", "<absent>"
		if i < len(al) {
			la = al[i]
		}
		if i < len(bl) {
			lb = bl[i]
		}
		if la != lb {
			return fmt.Sprintf("artifacts drift at line %d:\n%s: %s\n%s: %s",
				i+1, aName, la, bName, lb), false, nil
		}
	}
	// Same lines but unequal bytes: a trailing-newline mismatch.
	return fmt.Sprintf("artifacts differ only in trailing bytes (%d vs %d)", len(a), len(b)), false, nil
}

// JournalOptions tunes RunJournaled beyond the spec itself.
type JournalOptions struct {
	// Retries re-runs transiently failed cells (timeout kind) up to
	// this many extra passes before finalizing; deterministic
	// failures (panic, invalid_spec) never retry. Zero finalizes
	// after one pass.
	Retries int
	// Backoff sleeps before the first retry pass and doubles each
	// pass (default 100ms when Retries > 0).
	Backoff time.Duration
	// Sleep replaces time.Sleep in tests; nil uses time.Sleep.
	Sleep func(time.Duration)
	// Cache, when non-nil, resolves the spec's topology axis through
	// the shared build cache (see RunOptions.Cache) — sweepd passes
	// its per-server cache here so successive jobs over the same
	// families rebuild nothing. Artifact bytes are unaffected.
	Cache *buildcache.Cache
}

// RunJournaled runs the spec crash-safely: every completed cell is
// appended (and flushed) to out+".journal" as it lands, and the
// sorted artifact with its trailer is written to out+".tmp" then
// atomically renamed over out — a path either holds a complete,
// trailer-closed artifact or the previous one, never a truncation.
// When a journal from an interrupted run of the same spec hash is
// found, its completed cells are skipped and the resumed artifact is
// byte-identical to an uninterrupted run. Transient error lines
// (timeout, canceled) are never journaled — those cells re-run on
// resume — and per JournalOptions.Retries, timed-out cells get fresh
// passes before the artifact finalizes. Cell failures surface as an
// *AggregateError after the artifact is written; cancellation of ctx
// aborts before finalizing, leaving the journal for the next resume.
func RunJournaled(ctx context.Context, spec Spec, out string, opts JournalOptions) ([]Result, error) {
	spec = spec.withDefaults()
	hash, err := SpecHash(spec)
	if err != nil {
		return nil, err
	}
	cells, release, err := spec.cells(opts.Cache)
	if err != nil {
		return nil, err
	}
	defer release()
	if len(cells) == 0 {
		return nil, fmt.Errorf("scenario: spec %q expands to no runnable cells", spec.Name)
	}
	jpath := out + ".journal"
	skip, err := readJournal(jpath, hash)
	if err != nil {
		return nil, err
	}
	var jf *os.File
	if skip == nil {
		skip = make(map[string]Result)
		jf, err = os.Create(jpath)
		if err != nil {
			return nil, fmt.Errorf("scenario: creating journal: %w", err)
		}
		if err := json.NewEncoder(jf).Encode(journalHeader{Report: journalReport, SpecHash: hash}); err != nil {
			jf.Close()
			return nil, fmt.Errorf("scenario: writing journal header: %w", err)
		}
	} else {
		jf, err = os.OpenFile(jpath, os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			return nil, fmt.Errorf("scenario: reopening journal: %w", err)
		}
	}
	defer jf.Close()
	jenc := json.NewEncoder(jf)
	var jerr error
	onDone := func(r Result) {
		if transientKind(r.ErrorKind) {
			return // resume and retry passes must re-run these
		}
		if err := jenc.Encode(r); err != nil && jerr == nil {
			jerr = err
		}
		jf.Sync()
	}
	sleep := opts.Sleep
	if sleep == nil {
		sleep = time.Sleep
	}
	backoff := opts.Backoff
	if backoff <= 0 {
		backoff = 100 * time.Millisecond
	}
	var results []Result
	for pass := 0; ; pass++ {
		results, err = runCells(ctx, spec, cells, skip, onDone)
		if err != nil && !isAggregate(err) {
			// Sweep-level cancellation: the journal stays for resume.
			return results, err
		}
		if jerr != nil {
			return results, fmt.Errorf("scenario: appending journal: %w", jerr)
		}
		timeouts := 0
		for _, r := range results {
			if transientKind(r.ErrorKind) {
				timeouts++
			} else if r.Scenario != "" {
				skip[baseKey(r)] = r
			}
		}
		if timeouts == 0 || pass >= opts.Retries {
			break
		}
		sleep(backoff << uint(pass))
	}
	if ferr := WriteFileAtomic(out, func(w io.Writer) error {
		return WriteArtifact(w, hash, results)
	}); ferr != nil {
		return results, fmt.Errorf("scenario: publishing artifact: %w", ferr)
	}
	os.Remove(jpath)
	return results, err
}

// isAggregate reports whether err is a completed-sweep aggregate (the
// artifact is whole, some cells failed) rather than a run-stopping
// error.
func isAggregate(err error) bool {
	var agg *AggregateError
	return errors.As(err, &agg)
}

// baseKey strips the resolved-state suffix a budget demotion appends
// to the scenario key, recovering the cell's expansion key — the
// identity journal resume matches on.
func baseKey(r Result) string {
	if r.Degraded {
		return strings.TrimSuffix(r.Scenario, "/state="+r.State)
	}
	return r.Scenario
}

// WriteFileAtomic publishes path atomically: write fills path+".tmp",
// which is synced, closed and renamed over path, so path holds either
// its previous contents or the complete new ones, never a truncation.
// Every error path removes the temporary file.
func WriteFileAtomic(path string, write func(io.Writer) error) (err error) {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	defer func() {
		if err != nil {
			f.Close()
			os.Remove(tmp)
		}
	}()
	if err = write(f); err != nil {
		return err
	}
	if err = f.Sync(); err != nil {
		return err
	}
	if err = f.Close(); err != nil {
		return err
	}
	return os.Rename(tmp, path)
}

// readJournal loads an interrupted run's journal into a skip map
// keyed by base cell key. It returns (nil, nil) when no usable
// journal exists: missing file, wrong spec hash, or an unreadable
// header — resume then starts from scratch. A torn final line (the
// crash interrupting a write) is dropped, not fatal.
func readJournal(path, hash string) (map[string]Result, error) {
	f, err := os.Open(path)
	if err != nil {
		if os.IsNotExist(err) {
			return nil, nil
		}
		return nil, fmt.Errorf("scenario: opening journal: %w", err)
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 1<<20), 1<<24)
	if !sc.Scan() {
		return nil, nil // empty journal: start over
	}
	var hdr journalHeader
	if err := json.Unmarshal(sc.Bytes(), &hdr); err != nil || hdr.Report != journalReport || hdr.SpecHash != hash {
		return nil, nil // foreign or stale journal: start over
	}
	skip := make(map[string]Result)
	for sc.Scan() {
		line := strings.TrimSpace(sc.Text())
		if line == "" {
			continue
		}
		var r Result
		if err := json.Unmarshal([]byte(line), &r); err != nil {
			break // torn tail from the crash: everything before it counts
		}
		if r.Scenario == "" || transientKind(r.ErrorKind) {
			continue
		}
		skip[baseKey(r)] = r
	}
	if err := sc.Err(); err != nil {
		return nil, fmt.Errorf("scenario: reading journal: %w", err)
	}
	return skip, nil
}
