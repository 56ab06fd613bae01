package store_test

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"testing"

	"revtr/internal/obs"
	"revtr/internal/store"
)

type rec struct {
	ID  int    `json:"id"`
	Dst string `json:"dst"`
	N   int    `json:"n"`
}

func appendRec(t *testing.T, l *store.Log, n int) uint64 {
	t.Helper()
	id, err := l.Append(func(id uint64) any {
		return rec{ID: int(id), Dst: fmt.Sprintf("10.0.0.%d", n%250), N: n}
	})
	if err != nil {
		t.Fatal(err)
	}
	return id
}

// firstSegment is the file a fresh log writes to.
const firstSegment = "seg-00000000000000000000.jsonl"

// openSmall opens a durable log that rolls every 256 bytes (3–4 of the
// test records), so a short test crosses many segment boundaries.
func openSmall(t *testing.T, dir string, opts store.Options) *store.Log {
	t.Helper()
	l, err := store.Open(dir, opts)
	if err != nil {
		t.Fatal(err)
	}
	l.SetSegmentBytes(256)
	return l
}

// segmentNames lists dir, failing the test on any name that is not a
// segment file: the store creates nothing else, ever.
func segmentNames(t *testing.T, dir string) []string {
	t.Helper()
	entries, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, e := range entries {
		if ok, _ := filepath.Match("seg-"+strings.Repeat("[0-9]", 20)+".jsonl", e.Name()); !ok {
			t.Fatalf("%s in the archive directory is not a segment file", e.Name())
		}
		names = append(names, e.Name())
	}
	return names
}

// dirBytes sums the sizes of the files in dir.
func dirBytes(t *testing.T, dir string) int64 {
	t.Helper()
	var n int64
	for _, name := range segmentNames(t, dir) {
		st, err := os.Stat(filepath.Join(dir, name))
		if err != nil {
			t.Fatal(err)
		}
		n += st.Size()
	}
	return n
}

// snapshotAll renders the live record set as one byte blob for
// bit-identity comparisons across restarts.
func snapshotAll(t *testing.T, l *store.Log) []byte {
	t.Helper()
	var buf bytes.Buffer
	if err := l.Replay(func(id uint64, data []byte) error {
		fmt.Fprintf(&buf, "%d\t%s\n", id, data)
		return nil
	}); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestMemoryOnlyAppendGet(t *testing.T) {
	l, err := store.Open("", store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 10; i++ {
		if id := appendRec(t, l, i); id != uint64(i) {
			t.Fatalf("id = %d, want %d", id, i)
		}
	}
	var r rec
	ok, err := l.Get(7, &r)
	if err != nil || !ok {
		t.Fatalf("get: %v %v", ok, err)
	}
	if r.ID != 7 || r.N != 7 {
		t.Fatalf("record = %+v", r)
	}
	if ok, _ := l.Get(99, nil); ok {
		t.Fatal("phantom record")
	}
	if l.Len() != 10 || l.NextID() != 10 {
		t.Fatalf("len=%d next=%d", l.Len(), l.NextID())
	}
}

func TestRestartRecoversIdenticalSet(t *testing.T) {
	dir := t.TempDir()
	l, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 100; i++ {
		appendRec(t, l, i)
	}
	before := snapshotAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	l2, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l2.Close()
	if got := snapshotAll(t, l2); !bytes.Equal(got, before) {
		t.Fatalf("recovered set differs:\nbefore:\n%s\nafter:\n%s", before, got)
	}
	// IDs keep growing from where they left off.
	if id := appendRec(t, l2, 100); id != 100 {
		t.Fatalf("post-restart id = %d, want 100", id)
	}
}

func TestRecoveryAcrossRolls(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, store.Options{})
	// 256-byte segments: 50 appends cross a dozen roll boundaries.
	for i := 0; i < 50; i++ {
		appendRec(t, l, i)
	}
	if n := len(segmentNames(t, dir)); n < 5 {
		t.Fatalf("%d segment files after 50 appends, want several", n)
	}
	before := snapshotAll(t, l)
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	l2 := openSmall(t, dir, store.Options{})
	defer l2.Close()
	if got := snapshotAll(t, l2); !bytes.Equal(got, before) {
		t.Fatal("rolled store did not recover the identical set")
	}
	if id := appendRec(t, l2, 50); id != 50 {
		t.Fatalf("post-restart id = %d, want 50", id)
	}
}

func TestTornWALTailTolerated(t *testing.T) {
	dir := t.TempDir()
	l, err := store.Open(dir, store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		appendRec(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Simulate a crash mid-append: chop the last 9 bytes off the
	// segment, leaving a malformed final line.
	segPath := filepath.Join(dir, firstSegment)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, raw[:len(raw)-9], 0o644); err != nil {
		t.Fatal(err)
	}

	o := obs.New()
	l2, err := store.Open(dir, store.Options{Obs: o})
	if err != nil {
		t.Fatalf("torn tail rejected: %v", err)
	}
	defer l2.Close()
	// Every fully written record before the torn line survives.
	if l2.Len() != 19 {
		t.Fatalf("recovered %d records, want 19", l2.Len())
	}
	var r rec
	if ok, err := l2.Get(18, &r); !ok || err != nil || r.N != 18 {
		t.Fatalf("record 18: ok=%v err=%v r=%+v", ok, err, r)
	}
	if o.Counter("store_torn_tail_total").Value() != 1 {
		t.Fatal("torn tail not counted")
	}
	// Appends continue from the recovered frontier.
	if id := appendRec(t, l2, 19); id != 19 {
		t.Fatalf("post-torn id = %d, want 19", id)
	}
}

func TestRetentionCapAdvancesBaseKeepsIDs(t *testing.T) {
	l, err := store.Open("", store.Options{MaxRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		appendRec(t, l, i)
	}
	if l.Len() != 10 || l.Base() != 15 {
		t.Fatalf("len=%d base=%d", l.Len(), l.Base())
	}
	if _, err := l.Get(3, nil); err != store.ErrDropped {
		t.Fatalf("dropped record: err=%v", err)
	}
	var r rec
	if ok, err := l.Get(24, &r); !ok || err != nil || r.N != 24 {
		t.Fatalf("surviving record moved: %+v %v", r, err)
	}
	// Restarting a capped durable store applies the same cap.
	dir := t.TempDir()
	ld, err := store.Open(dir, store.Options{MaxRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 25; i++ {
		appendRec(t, ld, i)
	}
	before := snapshotAll(t, ld)
	ld.Close()
	ld2, err := store.Open(dir, store.Options{MaxRecords: 10})
	if err != nil {
		t.Fatal(err)
	}
	defer ld2.Close()
	if got := snapshotAll(t, ld2); !bytes.Equal(got, before) {
		t.Fatalf("capped recovery differs:\n%s\nvs\n%s", before, got)
	}
}

// TestSegmentBytesMetricFollowsFiles: store_wal_bytes is the bytes in the
// segment files on disk — it grows with appends, shrinks when a roll
// deletes a segment retention has passed, and is republished on restart.
func TestSegmentBytesMetricFollowsFiles(t *testing.T) {
	o := obs.New()
	dir := t.TempDir()
	l := openSmall(t, dir, store.Options{MaxRecords: 8, Obs: o})
	shrank := false
	for i := 0; i < 60; i++ {
		before := o.Gauge("store_wal_bytes").Value()
		appendRec(t, l, i)
		got := o.Gauge("store_wal_bytes").Value()
		if want := dirBytes(t, dir); got != want || got == 0 {
			t.Fatalf("append %d: store_wal_bytes = %d, files hold %d", i, got, want)
		}
		shrank = shrank || got < before
	}
	if !shrank {
		t.Fatal("no roll ever deleted a segment")
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	o2 := obs.New()
	l2 := openSmall(t, dir, store.Options{MaxRecords: 8, Obs: o2})
	defer l2.Close()
	if got, want := o2.Gauge("store_wal_bytes").Value(), dirBytes(t, dir); got != want {
		t.Fatalf("after restart: store_wal_bytes = %d, files hold %d", got, want)
	}
}

func TestConcurrentAppendsAssignUniqueIDs(t *testing.T) {
	l, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	const g, per = 8, 50
	var wg sync.WaitGroup
	ids := make([][]uint64, g)
	for i := 0; i < g; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			for j := 0; j < per; j++ {
				id, err := l.Append(func(id uint64) any { return rec{ID: int(id), N: j} })
				if err != nil {
					t.Error(err)
					return
				}
				ids[i] = append(ids[i], id)
			}
		}(i)
	}
	wg.Wait()
	seen := map[uint64]bool{}
	for _, s := range ids {
		for _, id := range s {
			if seen[id] {
				t.Fatalf("duplicate id %d", id)
			}
			seen[id] = true
		}
	}
	if len(seen) != g*per || l.Len() != g*per {
		t.Fatalf("ids=%d len=%d", len(seen), l.Len())
	}
	// Every record's embedded ID matches its assigned ID.
	if err := l.Replay(func(id uint64, data []byte) error {
		var r rec
		if err := json.Unmarshal(data, &r); err != nil {
			return err
		}
		if uint64(r.ID) != id {
			t.Fatalf("record %d embeds id %d", id, r.ID)
		}
		return nil
	}); err != nil {
		t.Fatal(err)
	}
}

// TestTornTailTruncatedBeforeNewAppends is the double-crash regression:
// records appended after a torn-tail recovery must survive the next
// restart. Recovery that merely stopped replay at the tear but left the
// file intact would append new records *behind* the torn line (O_APPEND),
// where a second replay never reaches them — acknowledged, even fsynced,
// writes would vanish and their IDs be silently reassigned.
func TestTornTailTruncatedBeforeNewAppends(t *testing.T) {
	dir := t.TempDir()
	l, err := store.Open(dir, store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		appendRec(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}

	// Crash mid-append: the last record's line is torn.
	segPath := filepath.Join(dir, firstSegment)
	raw, err := os.ReadFile(segPath)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(segPath, raw[:len(raw)-7], 0o644); err != nil {
		t.Fatal(err)
	}

	// First restart: ids 0 and 1 recover; id 2 (torn) is gone and is
	// reassigned to the next append, which the caller sees acknowledged
	// and fsynced.
	l2, err := store.Open(dir, store.Options{Sync: true})
	if err != nil {
		t.Fatal(err)
	}
	if l2.Len() != 2 {
		t.Fatalf("recovered %d records, want 2", l2.Len())
	}
	if id := appendRec(t, l2, 2); id != 2 {
		t.Fatalf("post-recovery id = %d, want 2", id)
	}
	if err := l2.Close(); err != nil {
		t.Fatal(err)
	}

	// Second restart: the post-recovery record must still be there, with
	// no torn tail in sight (recovery truncated the tear away).
	o := obs.New()
	l3, err := store.Open(dir, store.Options{Obs: o})
	if err != nil {
		t.Fatal(err)
	}
	defer l3.Close()
	if l3.Len() != 3 || l3.NextID() != 3 {
		t.Fatalf("len=%d next=%d, want 3/3: post-recovery append lost", l3.Len(), l3.NextID())
	}
	var r rec
	if ok, err := l3.Get(2, &r); !ok || err != nil || r.N != 2 {
		t.Fatalf("record 2 after double restart: ok=%v err=%v r=%+v", ok, err, r)
	}
	if o.Counter("store_torn_tail_total").Value() != 0 {
		t.Fatal("second restart still sees a torn tail; recovery did not truncate the segment")
	}
}

// TestAppendRollFailureConsumesNoID: Append has one error contract. A
// roll that cannot start the next segment fails the append that needed
// it — nothing written, the ID not consumed, earlier records intact —
// and the same ID goes to the next append that succeeds.
func TestAppendRollFailureConsumesNoID(t *testing.T) {
	dir := filepath.Join(t.TempDir(), "s")
	l := openSmall(t, dir, store.Options{})
	l.SetSegmentBytes(1) // every append after the first rolls
	appendRec(t, l, 0)

	// Break the roll: the directory vanishes, so the next segment cannot
	// be created; the active file descriptor itself still accepts writes.
	if err := os.RemoveAll(dir); err != nil {
		t.Fatal(err)
	}
	if id, err := l.Append(func(id uint64) any { return rec{ID: int(id), N: 1} }); err == nil {
		t.Fatalf("append across a failed roll succeeded with id %d", id)
	}
	if l.NextID() != 1 || l.Len() != 1 {
		t.Fatalf("failed append consumed an id: next=%d len=%d", l.NextID(), l.Len())
	}
	var r rec
	if ok, err := l.Get(0, &r); !ok || err != nil || r.N != 0 {
		t.Fatalf("record 0 after the failed roll: ok=%v err=%v r=%+v", ok, err, r)
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		t.Fatal(err)
	}
	if id := appendRec(t, l, 1); id != 1 {
		t.Fatalf("id after the roll recovered = %d, want 1", id)
	}
}

// TestSetObsRepublishesRecovery: an archive is opened before the
// registry that serves /metrics exists, so SetObs must carry what Open
// learned — records replayed, tails torn, bytes and records held — into
// the registry it is handed.
func TestSetObsRepublishesRecovery(t *testing.T) {
	dir := t.TempDir()
	l := openSmall(t, dir, store.Options{})
	for i := 0; i < 10; i++ {
		appendRec(t, l, i)
	}
	if err := l.Close(); err != nil {
		t.Fatal(err)
	}
	names := segmentNames(t, dir)
	f, err := os.OpenFile(filepath.Join(dir, names[len(names)-1]), os.O_APPEND|os.O_WRONLY, 0)
	if err != nil {
		t.Fatal(err)
	}
	f.WriteString(`{"id":10,"da`)
	f.Close()

	l2 := openSmall(t, dir, store.Options{})
	defer l2.Close()
	o := obs.New()
	l2.SetObs(o)
	if got := o.Counter("store_replayed_total").Value(); got != 10 {
		t.Fatalf("store_replayed_total = %d, want 10", got)
	}
	if got := o.Counter("store_torn_tail_total").Value(); got != 1 {
		t.Fatalf("store_torn_tail_total = %d, want 1", got)
	}
	if got := o.Gauge("store_records").Value(); got != 10 {
		t.Fatalf("store_records = %d, want 10", got)
	}
	if got, want := o.Gauge("store_wal_bytes").Value(), dirBytes(t, dir); got != want {
		t.Fatalf("store_wal_bytes = %d, files hold %d", got, want)
	}
}

// TestErrorsLeaveTheLogAlone: a record that will not marshal, a Get into
// the wrong type, a Replay callback that gives up and an archive path
// that cannot be a directory each fail without consuming an ID.
func TestErrorsLeaveTheLogAlone(t *testing.T) {
	l, err := store.Open(t.TempDir(), store.Options{})
	if err != nil {
		t.Fatal(err)
	}
	defer l.Close()
	appendRec(t, l, 0)
	if _, err := l.Append(func(uint64) any { return func() {} }); err == nil {
		t.Fatal("appended a record that does not marshal")
	}
	if l.NextID() != 1 {
		t.Fatalf("failed append consumed an id: next=%d", l.NextID())
	}
	var wrong []int
	if ok, err := l.Get(0, &wrong); !ok || err == nil {
		t.Fatalf("Get into the wrong type: ok=%v err=%v", ok, err)
	}
	stop := fmt.Errorf("stop")
	if err := l.Replay(func(uint64, []byte) error { return stop }); err != stop {
		t.Fatalf("Replay returned %v, want the callback's error", err)
	}
	file := filepath.Join(t.TempDir(), "f")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	if _, err := store.Open(filepath.Join(file, "archive"), store.Options{}); err == nil {
		t.Fatal("opened an archive under a regular file")
	}
}
