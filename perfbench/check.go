package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"math/rand"
	"os"
	"path/filepath"
	"strconv"
)

// referenceJSON holds, per workload, the expected output of every
// operation a round can run, recorded with --record: each simulated
// bandwidth (exact float64), each point's simulated-work counts, each
// serve response and each rendered replay surface (sha256 digests).
//
//go:embed reference.json
var referenceJSON []byte

// reference maps workload → output key → expected value.
type reference map[string]map[string]string

func loadReference() (reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("reference.json: %w", err)
	}
	return ref, nil
}

// checker compares outputs with one workload's reference.
type checker struct {
	want map[string]string
	// got collects outputs instead of checking them (--record).
	got map[string]string
	// seen marks the reference keys outputs were checked against.
	seen map[string]bool
	// bad counts mismatches; first keeps the first few.
	bad   int
	first []string
}

func newChecker(want map[string]string) *checker {
	return &checker{want: want, seen: map[string]bool{}}
}

func newRecorder() *checker { return &checker{got: map[string]string{}} }

// value checks one output.
func (c *checker) value(key, v string) {
	if c.got != nil {
		if old, ok := c.got[key]; ok && old != v {
			c.fail(fmt.Sprintf("%s: %s then %s while recording", key, old, v))
		}
		c.got[key] = v
		return
	}
	want, ok := c.want[key]
	c.seen[key] = true
	switch {
	case !ok:
		c.fail(fmt.Sprintf("%s: no reference", key))
	case want != v:
		c.fail(fmt.Sprintf("%s: got %s, want %s", key, v, want))
	}
}

// complete fails every reference key no output was checked against:
// a run must produce all of its workload's outputs. Call it when the
// run's rounds are done.
func (c *checker) complete() {
	if c.got != nil {
		return
	}
	for _, k := range sortedKeys(c.want) {
		if !c.seen[k] {
			c.fail(fmt.Sprintf("%s: never produced", k))
		}
	}
}

func (c *checker) fail(msg string) {
	c.bad++
	if len(c.first) < 5 {
		c.first = append(c.first, msg)
	}
}

// float checks one simulated value exactly.
func (c *checker) float(key string, v float64) {
	c.value(key, strconv.FormatFloat(v, 'g', -1, 64))
}

// bytes checks the digest of one byte-stable output.
func (c *checker) bytes(key string, b []byte) { c.value(key, digest(b)) }

func (c *checker) ok() bool { return c.bad == 0 }

// report lists the first few mismatches.
func (c *checker) report() []string {
	if c.bad > len(c.first) {
		return append(append([]string(nil), c.first...), fmt.Sprintf("and %d more", c.bad-len(c.first)))
	}
	return c.first
}

func digest(b []byte) string {
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:12])
}

// recordReference runs one traced round of every workload with
// recording checkers and rewrites perfbench/reference.json; run it
// from the root of the repository.
func recordReference(workers int, out string) error {
	ref := reference{}
	for _, name := range sortedKeys(workloads) {
		w := workloads[name]()
		e := &env{workers: workers, chk: newRecorder(), tr: newTracer()}
		dir := filepath.Join(out, "record-"+name)
		if err := w.setup(e, dir); err != nil {
			return fmt.Errorf("%s setup: %w", name, err)
		}
		err := w.round(e, rand.New(rand.NewSource(1)))
		if cerr := w.close(); err == nil {
			err = cerr
		}
		os.RemoveAll(dir)
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		if !e.chk.ok() || e.errs != 0 {
			return fmt.Errorf("%s: %d failed operations, %v", name, e.errs, e.chk.report())
		}
		ref[name] = e.chk.got
		fmt.Fprintf(os.Stderr, "%s: %d outputs\n", name, len(e.chk.got))
	}
	return writeReference(ref, filepath.Join("perfbench", "reference.json"))
}

// writeReference writes ref with one entry per line, keys sorted, so
// a change to the program shows as a readable diff.
func writeReference(ref reference, path string) error {
	b, err := json.MarshalIndent(ref, "", "  ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}
