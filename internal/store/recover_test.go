package store_test

import (
	"bytes"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"revtr/internal/obs"
	"revtr/internal/store"
)

// copyDir copies the segment files of src into a fresh directory.
func copyDir(t *testing.T, src string) string {
	t.Helper()
	dst := t.TempDir()
	for _, name := range segmentNames(t, src) {
		raw, err := os.ReadFile(filepath.Join(src, name))
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dst, name), raw, 0o644); err != nil {
			t.Fatal(err)
		}
	}
	return dst
}

// checkContiguous replays l and fails unless it holds exactly the IDs
// [Base, NextID) in order, each with the bytes orig recorded for it
// (IDs orig does not know are new and only checked for order).
func checkContiguous(t *testing.T, l *store.Log, orig map[uint64]string) {
	t.Helper()
	next := l.Base()
	if err := l.Replay(func(id uint64, data []byte) error {
		if id != next {
			return fmt.Errorf("replayed id %d, want %d", id, next)
		}
		if want, ok := orig[id]; ok && want != string(data) {
			return fmt.Errorf("id %d came back as %s, was acked as %s", id, data, want)
		}
		next++
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	if next != l.NextID() || int(next-l.Base()) != l.Len() {
		t.Fatalf("replay ended at %d: base=%d next=%d len=%d", next, l.Base(), l.NextID(), l.Len())
	}
}

// TestCrashPoints cuts the last segment at every byte offset of its
// final three lines — plus the two states a crash can leave at a roll
// boundary — and checks both halves of recovery: a contiguous prefix of
// what was acked comes back, and records appended after the recovery
// survive the next restart under the IDs they were acked with.
func TestCrashPoints(t *testing.T) {
	for _, maxRecords := range []int{0, 16} {
		t.Run(fmt.Sprintf("MaxRecords=%d", maxRecords), func(t *testing.T) {
			opts := store.Options{MaxRecords: maxRecords}
			dir := t.TempDir()
			l := openSmall(t, dir, opts)
			defer l.Close()

			// The archive as it stood when the crash hit: fill appends
			// (at least 40 records) until the last segment satisfies
			// done, then freezes what was acked.
			var (
				last  string
				raw   []byte
				acked map[uint64]string
			)
			n := 0
			fill := func(done func(raw []byte) bool) {
				for {
					appendRec(t, l, n)
					n++
					names := segmentNames(t, dir)
					last = names[len(names)-1]
					var err error
					if raw, err = os.ReadFile(filepath.Join(dir, last)); err != nil {
						t.Fatal(err)
					}
					if n >= 40 && done(raw) {
						break
					}
				}
				acked = map[uint64]string{}
				l.Replay(func(id uint64, data []byte) error { acked[id] = string(data); return nil })
			}

			// crash recovers a copy of the archive whose last segment
			// is cut to raw[:cut].
			crash := func(cut int) {
				t.Helper()
				d := copyDir(t, dir)
				if err := os.WriteFile(filepath.Join(d, last), raw[:cut], 0o644); err != nil {
					t.Fatal(err)
				}
				next := l.NextID() - uint64(bytes.Count(raw[cut:], []byte("\n")))
				l1 := openSmall(t, d, opts)
				if l1.NextID() != next {
					t.Fatalf("cut %d: next id %d, want %d", cut, l1.NextID(), next)
				}
				checkContiguous(t, l1, acked)
				for i := uint64(0); i < 6; i++ { // enough to roll at least once
					if id := appendRec(t, l1, 1000); id != next+i {
						t.Fatalf("cut %d: append %d got id %d", cut, i, id)
					}
				}
				want := map[uint64]string{}
				l1.Replay(func(id uint64, data []byte) error { want[id] = string(data); return nil })
				if err := l1.Close(); err != nil {
					t.Fatal(err)
				}
				opts := opts
				opts.Obs = obs.New()
				l2 := openSmall(t, d, opts)
				defer l2.Close()
				if l2.NextID() != next+6 {
					t.Fatalf("cut %d: post-recovery appends lost: next id %d, want %d", cut, l2.NextID(), next+6)
				}
				checkContiguous(t, l2, want)
				if opts.Obs.Counter("store_torn_tail_total").Value() != 0 {
					t.Fatalf("cut %d: the tear survived the recovery that should have truncated it", cut)
				}
			}

			fill(func(raw []byte) bool { return bytes.Count(raw, []byte("\n")) == 4 })
			for cut := bytes.IndexByte(raw, '\n') + 1; cut <= len(raw); cut++ {
				crash(cut)
			}
			// A crash between a roll creating the segment and its first
			// write…
			crash(0)
			// …and one with the last segment full and whole, so the
			// first append after recovery is the one that rolls.
			fill(func(raw []byte) bool { return len(raw) >= 256 })
			crash(len(raw))
		})
	}
}

// TestRetentionDeletesWholeSegments: with MaxRecords set the directory
// holds segment files and nothing else, each written once, and no more
// of them than the live set needs; the survivors are identical across a
// restart.
func TestRetentionDeletesWholeSegments(t *testing.T) {
	const maxRecords, segBytes = 64, 1024
	dir := t.TempDir()
	l, err := store.Open(dir, store.Options{MaxRecords: maxRecords})
	if err != nil {
		t.Fatal(err)
	}
	l.SetSegmentBytes(segBytes)
	closed := map[string]string{} // segment name → content once it stopped being the last
	for i := 0; i < 3*maxRecords; i++ {
		appendRec(t, l, i)
		names := segmentNames(t, dir)
		for _, name := range names[:len(names)-1] {
			raw, err := os.ReadFile(filepath.Join(dir, name))
			if err != nil {
				t.Fatal(err)
			}
			if was, seen := closed[name]; seen && was != string(raw) {
				t.Fatalf("append %d: closed segment %s was written again", i, name)
			}
			closed[name] = string(raw)
		}
		var live int
		l.Replay(func(id uint64, data []byte) error {
			live += len(data) + len(fmt.Sprintf(`{"id":%d,"data":}`+"\n", id))
			return nil
		})
		if limit := (live+segBytes-1)/segBytes + 1; len(names) > limit {
			t.Fatalf("append %d: %d segment files for %d live bytes, want at most %d", i, len(names), live, limit)
		}
	}
	if l.Len() != maxRecords || l.Base() != 2*maxRecords {
		t.Fatalf("len=%d base=%d", l.Len(), l.Base())
	}
	if _, gone := closed[firstSegment]; !gone || len(closed) < 6 {
		t.Fatalf("segments seen closed: %d", len(closed))
	}
	if _, err := os.Stat(filepath.Join(dir, firstSegment)); !os.IsNotExist(err) {
		t.Fatalf("the first segment outlived retention: %v", err)
	}
	before := snapshotAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2, err := store.Open(dir, store.Options{MaxRecords: maxRecords})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := snapshotAll(t, l2); !bytes.Equal(got, before) {
		t.Fatalf("capped recovery differs:\n%s\nvs\n%s", before, got)
	}
}

// TestOpenNamesTheFileItRejects: everything recovery will not repair is
// an Open error carrying the offending file's name — never an archive
// that quietly opens empty or short.
func TestOpenNamesTheFileItRejects(t *testing.T) {
	build := func(t *testing.T) (string, []string) {
		dir := t.TempDir()
		l := openSmall(t, dir, store.Options{})
		for i := 0; i < 30; i++ {
			appendRec(t, l, i)
		}
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		return dir, segmentNames(t, dir)
	}
	cases := []struct {
		name   string
		damage func(t *testing.T, dir string, names []string) (culprit string)
	}{
		{"old-format WAL", func(t *testing.T, dir string, _ []string) string {
			os.WriteFile(filepath.Join(dir, "wal.jsonl"), []byte(`{"id":0,"data":{}}`+"\n"), 0o644)
			return "wal.jsonl"
		}},
		{"old-format snapshot", func(t *testing.T, dir string, _ []string) string {
			os.WriteFile(filepath.Join(dir, "snapshot.jsonl"), []byte(`{"base":0,"n":0}`+"\n"), 0o644)
			return "snapshot.jsonl"
		}},
		{"corrupt line mid-archive", func(t *testing.T, dir string, names []string) string {
			path := filepath.Join(dir, names[1])
			raw, _ := os.ReadFile(path)
			raw[len(raw)/2] = '\n'
			os.WriteFile(path, raw, 0o644)
			return names[1]
		}},
		{"torn tail on a closed segment", func(t *testing.T, dir string, names []string) string {
			path := filepath.Join(dir, names[0])
			raw, _ := os.ReadFile(path)
			os.WriteFile(path, raw[:len(raw)-5], 0o644)
			return names[0]
		}},
		{"missing segment", func(t *testing.T, dir string, names []string) string {
			os.Remove(filepath.Join(dir, names[2]))
			return names[3]
		}},
		{"malformed segment name", func(t *testing.T, dir string, _ []string) string {
			os.WriteFile(filepath.Join(dir, "seg-7.jsonl"), nil, 0o644)
			return "seg-7.jsonl"
		}},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			dir, names := build(t)
			culprit := tc.damage(t, dir, names)
			l, err := store.Open(dir, store.Options{})
			if err == nil {
				l.Close()
				t.Fatalf("Open accepted the directory (%d records)", l.Len())
			}
			if !strings.Contains(err.Error(), filepath.Join(dir, culprit)) {
				t.Fatalf("error does not name %s: %v", culprit, err)
			}
		})
	}
}

// FuzzStoreRecover: whatever bytes a crash leaves as the last segment,
// Open neither panics nor fails, what it replays is a contiguous run of
// IDs starting with the closed segment's records unharmed, and the
// archive it leaves behind accepts an append that the next Open returns.
func FuzzStoreRecover(f *testing.F) {
	const closed = `{"id":0,"data":{"n":0}}` + "\n" + `{"id":1,"data":{"n":1}}` + "\n"
	f.Add([]byte(nil))
	f.Add([]byte(`{"id":2,"data":{"n":2}}` + "\n" + `{"id":3,"data":{"n":3}}` + "\n"))
	f.Add([]byte(`{"id":2,"data":{"n":2}}` + "\n" + `{"id":3,"da`))
	f.Add([]byte(`{"id":2,"data":{"n":2}}`)) // whole record, no terminator
	f.Add([]byte(`{"id":3,"data":{"n":3}}` + "\n"))
	f.Add([]byte(`{"id":2}` + "\n"))
	f.Add([]byte("\n\n" + `{"id":2,"data":1}` + "\n"))
	f.Fuzz(func(t *testing.T, tail []byte) {
		dir := t.TempDir()
		if err := os.WriteFile(filepath.Join(dir, firstSegment), []byte(closed), 0o644); err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(filepath.Join(dir, "seg-00000000000000000002.jsonl"), tail, 0o644); err != nil {
			t.Fatal(err)
		}
		l, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("Open: %v", err)
		}
		if l.Base() != 0 || l.Len() < 2 {
			t.Fatalf("closed segment's records lost: base=%d len=%d", l.Base(), l.Len())
		}
		checkContiguous(t, l, map[uint64]string{0: `{"n":0}`, 1: `{"n":1}`})
		id := appendRec(t, l, 7)
		before := snapshotAll(t, l)
		if err := l.Close(); err != nil {
			t.Fatal(err)
		}
		l2, err := store.Open(dir, store.Options{})
		if err != nil {
			t.Fatalf("second Open: %v", err)
		}
		defer l2.Close()
		if got := snapshotAll(t, l2); !bytes.Equal(got, before) || l2.NextID() != id+1 {
			t.Fatalf("append after recovery did not survive:\n%s\nvs\n%s", before, got)
		}
	})
}
