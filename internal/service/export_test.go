package service

import "time"

// SetMaxBatchPairs shrinks the per-request pair cap of POST
// /api/v1/batch so a test can cross it with a handful of pairs. Nothing
// outside this package's tests can: the cap is a constant everywhere else.
func (a *API) SetMaxBatchPairs(n int) { a.maxBatchPairs = n }

// SetHeartbeat shortens the keep-alive interval of the event streams so
// idle-stream tests do not wait the production 15 s.
func (a *API) SetHeartbeat(d time.Duration) { a.heartbeat = d }
