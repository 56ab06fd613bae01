// TryLock / TryRLock (forbidden: every call is a finding, whatever the
// branch does with the lock) and rwmutex recursive-read (downgrade)
// regression cases: the shapes the boolean held-set model miscounted.
package locks

// tryLeak leaks inside the branch where TryLock succeeded.
func (s *store) tryLeak(k string) int {
	if s.mu.TryLock() { // want "s.mu.TryLock is not modelled"
		if v, ok := s.state[k]; ok {
			return v
		}
		s.mu.Unlock()
	}
	return -1
}

// tryEarlyExit is the guard idiom: the failure path returns, so the
// lock is held only after the if — and the later bare return leaks it.
func (s *store) tryEarlyExit(k string) int {
	if !s.mu.TryLock() { // want "s.mu.TryLock is not modelled"
		return -1
	}
	v := s.state[k]
	if v < 0 {
		return v
	}
	s.mu.Unlock()
	return v
}

// tryClean brackets the critical section correctly in both shapes.
func (s *store) tryClean(k string) int {
	if s.mu.TryLock() { // want "s.mu.TryLock is not modelled"
		v := s.state[k]
		s.mu.Unlock()
		return v
	}
	if !s.mu.TryLock() { // want "s.mu.TryLock is not modelled"
		return -1
	}
	defer s.mu.Unlock()
	return s.state[k]
}

// tryReadLeak is the read-mode variant.
func (r *rw) tryReadLeak() int {
	if r.mu.TryRLock() { // want "r.mu.TryRLock is not modelled by lockorder/suspendsafe/locksafe; take the lock or restructure"
		if len(r.data) == 0 {
			return 0
		}
		r.mu.RUnlock()
	}
	return -1
}

// doubleRead takes a second, recursive read lock under a deferred
// RUnlock that only covers the first: the early return leaks one hold.
// A boolean held-set cancels the two and misses this.
func (r *rw) doubleRead() int {
	r.mu.RLock()
	defer r.mu.RUnlock()
	r.mu.RLock()
	if len(r.data) == 0 {
		return 0 // want "return while r.mu is held"
	}
	r.mu.RUnlock()
	return r.data[0]
}

// downgrade swaps the write lock for a read lock and defers the matching
// RUnlock: clean, and the write mode must not be charged to the read
// mode's deferred unlock.
func (r *rw) downgrade() int {
	r.mu.Lock()
	r.data = append(r.data, 1)
	r.mu.Unlock()
	r.mu.RLock()
	defer r.mu.RUnlock()
	return r.data[0]
}
