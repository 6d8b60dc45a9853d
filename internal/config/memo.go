package config

import "sync"

// Memo builds one T per configuration value and shares it: the power
// models, simulators and card silicon a process derives from a
// configuration are immutable once built, and a sweep asks for the same
// few configurations cell after cell, pass after pass. GPU has no
// pointers, slices or maps, so the value itself is the key, and Validate
// makes map equality bit equality (every float is finite and unsigned).
//
// The memo is bounded for the same reason as the experiments' host-built
// workloads: configurations come only from the registered sweep axes (a few
// dozen values) and from a command's one configuration file. memoCap backs
// that up for a caller that feeds it arbitrary configurations, such as a
// fuzz test: a store into a full memo starts a fresh one.
type Memo[T any] struct {
	mu    sync.Mutex
	built map[GPU]T
}

// memoCap is the most values a Memo holds.
const memoCap = 1024

// Get returns the value built for *cfg's value, calling build on the
// first request. build receives a private copy of the configuration,
// which the value may keep: later changes to *cfg cannot reach it. The
// lookup holds the lock, the build does not; when concurrent first
// callers race, the first to store wins and every caller gets its value.
// Only a configuration that Validate accepted and that built without
// error is stored.
func (m *Memo[T]) Get(cfg *GPU, build func(*GPU) (T, error)) (T, error) {
	m.mu.Lock()
	v, ok := m.built[*cfg]
	m.mu.Unlock()
	if ok {
		return v, nil
	}
	if err := cfg.Validate(); err != nil {
		return v, err
	}
	own := *cfg
	v, err := build(&own)
	if err != nil {
		return v, err
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if first, ok := m.built[own]; ok {
		return first, nil
	}
	if m.built == nil || len(m.built) >= memoCap {
		m.built = make(map[GPU]T)
	}
	m.built[own] = v
	return v, nil
}
