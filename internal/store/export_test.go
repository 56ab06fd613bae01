package store

// SetSegmentBytes shrinks the roll threshold so tests can cross segment
// boundaries with a handful of records. Nothing outside this package's
// tests can: the size is a constant everywhere else.
func (l *Log) SetSegmentBytes(n int64) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.segBytes = n
}
