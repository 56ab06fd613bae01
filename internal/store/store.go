// Package store is the durable measurement archive behind the service:
// an append-only log of JSON records with monotonically increasing IDs,
// persisted as a sequence of JSON-lines segment files. A restarted
// server replays the segments and recovers the identical record set —
// same IDs, same bytes — which is what lets measurement IDs handed to
// clients survive a crash (the paper's open service keeps revtrs
// retrievable for a day; Insight 1.4).
//
// Durability model:
//
//   - Append marshals the record once and writes one line
//     `{"id":N,"data":<record>}` to the active segment,
//     seg-<first id, 20 digits>.jsonl (fsynced per append under Sync).
//   - An append that finds the active segment at or past segmentBytes
//     first rolls: the segment is fsynced and closed for good, and the
//     next one, named after the ID about to be assigned, becomes
//     active. A file is written once, in order, and never rewritten.
//   - MaxRecords caps the live set; exceeding it advances the base ID
//     (surviving IDs never move). A roll deletes every segment whose
//     records all lie below the base, oldest first.
//   - Recovery replays the segments in name order under three rules.
//     IDs must run contiguously through every line of every file, each
//     file starting at the ID in its name. A line of the last file that
//     breaks this or does not parse — the torn write of a crash
//     mid-append — is cut off with everything behind it: the file is
//     truncated to its last good line before the first new append, so
//     a new record can never land behind garbage a later replay would
//     stop at. The same fault in an earlier file, or a .jsonl file in
//     the directory that is not a segment (an archive written in the
//     format before this one), is an Open error naming the file.
//
// A Log opened with dir == "" is memory-only: same API, same IDs, no
// files — the mode unit tests and the default in-process registry use.
package store

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"sync"

	"revtr/internal/obs"
)

// Options tunes durability and retention.
type Options struct {
	// MaxRecords caps the live record set; the oldest records are
	// dropped (base advances) when exceeded. <= 0 means unbounded.
	MaxRecords int
	// Sync fsyncs the active segment after every append. Slow but loses
	// nothing; off by default (a crash can lose the last buffered
	// appends, never corrupt earlier ones).
	Sync bool
	// Obs, when set, receives store metrics (store_wal_bytes,
	// store_records, store_appends_total, store_dropped_total,
	// store_replayed_total, store_torn_tail_total).
	Obs *obs.Registry
}

// segmentBytes is the size at which the active segment is closed and
// the next one started. A segment overshoots it by at most one record.
const segmentBytes = 4 << 20

// ErrDropped is returned by Get for IDs older than the retention cap.
var ErrDropped = errors.New("store: record dropped by retention cap")

// line is one segment line.
type line struct {
	ID   uint64          `json:"id"`
	Data json.RawMessage `json:"data"`
}

// segment is one file on disk: the ID of its first line and its size.
type segment struct {
	first uint64
	size  int64
}

// Log is the append-only record log. Safe for concurrent use.
type Log struct {
	mu   sync.Mutex
	dir  string
	opts Options

	base uint64   // ID of recs[0]
	recs [][]byte // marshalled record JSON, index i holds ID base+i

	segs     []segment // files on disk in ID order; the last is active
	active   *os.File
	size     int64 // bytes on disk: the sum over segs
	segBytes int64 // segmentBytes; only this package's tests set another

	mBytes    *obs.Gauge
	mRecords  *obs.Gauge
	mAppends  *obs.Counter
	mDropped  *obs.Counter
	mReplayed *obs.Counter
	mTorn     *obs.Counter

	// Replay outcomes are also kept as plain fields so SetObs can
	// republish them: recovery runs in Open, typically before the
	// registry that will serve /metrics exists.
	nReplayed uint64
	nTorn     uint64
}

// bindObs hoists every metric handle from o (nil disables them; the
// handles stay usable either way). The single registration site per
// name keeps the obsnames contract.
func (l *Log) bindObs(o *obs.Registry) {
	l.mBytes = o.Gauge("store_wal_bytes")
	l.mRecords = o.Gauge("store_records")
	l.mAppends = o.Counter("store_appends_total")
	l.mDropped = o.Counter("store_dropped_total")
	l.mReplayed = o.Counter("store_replayed_total")
	l.mTorn = o.Counter("store_torn_tail_total")
}

// SetObs re-homes the log's metrics onto o and republishes the current
// gauge values plus the recovery counters (replayed records, torn
// tails), which predate any registry handed in here. The service uses
// this to pull an archive opened before the registry existed into the
// registry's /metrics namespace; the remaining counters restart from
// zero in the new registry.
func (l *Log) SetObs(o *obs.Registry) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.bindObs(o)
	l.mBytes.Set(l.size)
	l.mRecords.Set(int64(len(l.recs)))
	l.mReplayed.Add(l.nReplayed)
	l.mTorn.Add(l.nTorn)
}

// Open opens (or creates) a log rooted at dir, replaying the segments
// found there. dir == "" opens a memory-only log.
func Open(dir string, opts Options) (*Log, error) {
	l := &Log{dir: dir, opts: opts, segBytes: segmentBytes}
	l.bindObs(opts.Obs)
	if dir == "" {
		return l, nil
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	if err := l.recover(); err != nil {
		return nil, err
	}
	if len(l.segs) == 0 {
		l.segs = []segment{{first: l.base}}
	}
	active, err := l.openSegment(l.segs[len(l.segs)-1].first)
	if err != nil {
		return nil, fmt.Errorf("store: %w", err)
	}
	l.active = active
	l.mBytes.Set(l.size)
	l.mRecords.Set(int64(len(l.recs)))
	return l, nil
}

func (l *Log) segmentPath(first uint64) string {
	return filepath.Join(l.dir, fmt.Sprintf("seg-%020d.jsonl", first))
}

func (l *Log) openSegment(first uint64) (*os.File, error) {
	return os.OpenFile(l.segmentPath(first), os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
}

// recover loads every segment into memory in name order and truncates a
// torn tail off the last one.
func (l *Log) recover() error {
	// ReadDir sorts by name, and 20 digits hold any uint64: name order
	// is ID order.
	entries, err := os.ReadDir(l.dir)
	if err != nil {
		return fmt.Errorf("store: %w", err)
	}
	var firsts []uint64
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".jsonl" {
			continue
		}
		var first uint64
		if _, err := fmt.Sscanf(e.Name(), "seg-%020d.jsonl", &first); err != nil || e.Name() != filepath.Base(l.segmentPath(first)) {
			return fmt.Errorf("store: %s is not a segment file (seg-<first id, 20 digits>.jsonl); an archive in any other format is not read",
				filepath.Join(l.dir, e.Name()))
		}
		firsts = append(firsts, first)
	}
	for i, first := range firsts {
		path := l.segmentPath(first)
		if i == 0 {
			l.base = first
		}
		if next := l.base + uint64(len(l.recs)); first != next {
			return fmt.Errorf("store: %s: segment starts at id %d, want %d", path, first, next)
		}
		raw, err := os.ReadFile(path)
		if err != nil {
			return fmt.Errorf("store: %w", err)
		}
		good := l.loadLines(raw)
		if good < len(raw) {
			if i < len(firsts)-1 {
				return fmt.Errorf("store: %s: malformed line at byte %d of a closed segment", path, good)
			}
			if err := os.Truncate(path, int64(good)); err != nil {
				return fmt.Errorf("store: %w", err)
			}
			l.nTorn++
			l.mTorn.Inc()
		}
		l.segs = append(l.segs, segment{first: first, size: int64(good)})
		l.size += int64(good)
	}
	l.enforceCap()
	l.nReplayed = uint64(len(l.recs))
	l.mReplayed.Add(l.nReplayed)
	return nil
}

// loadLines replays one segment's bytes and returns the length of the
// prefix that held whole, parseable lines carrying the expected IDs.
func (l *Log) loadLines(raw []byte) (good int) {
	for good < len(raw) {
		nl := bytes.IndexByte(raw[good:], '\n')
		if nl < 0 {
			break // no terminator: the write never finished
		}
		var rec line
		if err := json.Unmarshal(raw[good:good+nl], &rec); err != nil || rec.Data == nil ||
			rec.ID != l.base+uint64(len(l.recs)) {
			break
		}
		l.recs = append(l.recs, bytes.Clone(rec.Data))
		good += nl + 1
	}
	return good
}

// Append marshals and durably appends one record. build receives the ID
// the record will carry, so callers can embed it in the record itself
// (the service stamps Measurement.ID this way); the marshalled bytes
// are what Get and recovery return, bit for bit. An error means the
// record was not appended and the ID was not consumed.
func (l *Log) Append(build func(id uint64) any) (uint64, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	id := l.base + uint64(len(l.recs))
	data, err := json.Marshal(build(id))
	if err != nil {
		return 0, fmt.Errorf("store: marshal: %w", err)
	}
	if l.active != nil {
		if l.segs[len(l.segs)-1].size >= l.segBytes {
			if err := l.roll(id); err != nil {
				return 0, fmt.Errorf("store: roll: %w", err)
			}
		}
		ln, err := json.Marshal(line{ID: id, Data: data})
		if err != nil {
			return 0, fmt.Errorf("store: marshal line: %w", err)
		}
		ln = append(ln, '\n')
		active := &l.segs[len(l.segs)-1]
		_, err = l.active.Write(ln)
		if err == nil && l.opts.Sync {
			err = l.active.Sync()
		}
		if err != nil {
			// Take the line, or the part of it that was written, back
			// out of the file: the next append carries this ID again,
			// and recovery accepts an ID once.
			return 0, fmt.Errorf("store: append: %w", errors.Join(err, l.active.Truncate(active.size)))
		}
		active.size += int64(len(ln))
		l.size += int64(len(ln))
		l.mBytes.Set(l.size)
	}
	l.recs = append(l.recs, data)
	l.enforceCap()
	l.mAppends.Inc()
	l.mRecords.Set(int64(len(l.recs)))
	return id, nil
}

// roll closes the active segment for good, starts the one whose first
// line will carry id, and deletes the segments retention has passed.
// The fsync comes before the new file exists, so a segment that is not
// the last on disk is whole: recovery may demand it. Callers hold l.mu.
func (l *Log) roll(id uint64) error {
	if err := l.active.Sync(); err != nil {
		return err
	}
	next, err := l.openSegment(id)
	if err != nil {
		return err
	}
	closed := l.active
	l.active = next
	l.segs = append(l.segs, segment{first: id})
	if err := closed.Close(); err != nil {
		return err
	}
	for len(l.segs) > 1 && l.segs[1].first <= l.base {
		if err := os.Remove(l.segmentPath(l.segs[0].first)); err != nil {
			return err
		}
		l.size -= l.segs[0].size
		l.segs = l.segs[1:]
	}
	l.mBytes.Set(l.size)
	return nil
}

// enforceCap drops the oldest records past MaxRecords by moving the
// window's start; append reallocates (and lets go of the dropped
// prefix) once the capacity behind the window runs out. Callers hold
// l.mu.
func (l *Log) enforceCap() {
	drop := len(l.recs) - l.opts.MaxRecords
	if l.opts.MaxRecords <= 0 || drop <= 0 {
		return
	}
	clear(l.recs[:drop])
	l.recs = l.recs[drop:]
	l.base += uint64(drop)
	l.mDropped.Add(uint64(drop))
}

// Get unmarshals the record with the given ID into v (which may be nil
// to just probe existence). Returns ErrDropped for IDs that fell to the
// retention cap and false for IDs never assigned.
func (l *Log) Get(id uint64, v any) (bool, error) {
	l.mu.Lock()
	defer l.mu.Unlock()
	if id < l.base {
		return false, ErrDropped
	}
	i := id - l.base
	if i >= uint64(len(l.recs)) {
		return false, nil
	}
	if v == nil {
		return true, nil
	}
	if err := json.Unmarshal(l.recs[i], v); err != nil {
		return true, fmt.Errorf("store: unmarshal record %d: %w", id, err)
	}
	return true, nil
}

// Len is the live record count.
func (l *Log) Len() int {
	l.mu.Lock()
	defer l.mu.Unlock()
	return len(l.recs)
}

// Base is the lowest live ID (IDs below it were dropped by retention).
func (l *Log) Base() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base
}

// NextID is the ID the next Append will assign.
func (l *Log) NextID() uint64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.base + uint64(len(l.recs))
}

// Replay streams every live record in ID order.
func (l *Log) Replay(fn func(id uint64, data []byte) error) error {
	l.mu.Lock()
	base := l.base
	recs := make([][]byte, len(l.recs))
	copy(recs, l.recs)
	l.mu.Unlock()
	for i, data := range recs {
		if err := fn(base+uint64(i), data); err != nil {
			return err
		}
	}
	return nil
}

// Close flushes and closes the active segment. The Log must not be used
// after.
func (l *Log) Close() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	if l.active == nil {
		return nil
	}
	err := l.active.Sync()
	if cerr := l.active.Close(); err == nil {
		err = cerr
	}
	l.active = nil
	return err
}
