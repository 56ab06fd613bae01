package core

// ExtractReverse exposes extractReverse to the external test package
// (which, unlike this one, can import simtest): tests that replay the
// probes a sweep did not send read the replies the way the engine would.
var ExtractReverse = extractReverse
