package fleet

import (
	"context"
	"sync"
	"time"

	"gpusimpow/internal/service"
)

// State is a backend's circuit-breaker position.
type State string

const (
	// StateHealthy: routable and serving.
	StateHealthy State = "healthy"
	// StateDraining: serving existing jobs (streams keep flowing, reports
	// keep answering) but receives no new work — the zero-downtime rollout
	// state. Entered by operator drain (persisted across router restarts)
	// or by the backend itself reporting "draining" on /v1/healthz.
	StateDraining State = "draining"
	// StateDead: unreachable or hung past the failure threshold. Its
	// in-flight jobs are re-dispatched to survivors; it rejoins as healthy
	// once probes succeed again.
	StateDead State = "dead"
)

// Backend is one gpowd under the router: its client, breaker state, and
// the last health payload (reported in the fleet status).
type Backend struct {
	Name string
	URL  string

	client *service.Client

	mu sync.Mutex
	// dead and the failure counter are probe-owned; opDrain is the
	// operator's persisted drain bit; selfDrain mirrors the backend's own
	// healthz report. State() folds all three.
	dead      bool
	opDrain   bool
	selfDrain bool
	failures  int
	info      service.HealthInfo
	probed    time.Time
}

func newBackend(name, url string) *Backend {
	return &Backend{
		Name: name,
		URL:  url,
		// The router does its own failure handling (probes, breaker,
		// failover); the per-request client must fail fast, not mask a dying
		// backend behind minutes of backoff.
		client: &service.Client{Base: url, RetryAttempts: -1},
	}
}

// State folds the breaker inputs: dead trumps draining trumps healthy.
func (b *Backend) State() State {
	b.mu.Lock()
	defer b.mu.Unlock()
	switch {
	case b.dead:
		return StateDead
	case b.opDrain || b.selfDrain:
		return StateDraining
	}
	return StateHealthy
}

// Routable reports whether new jobs may be assigned here.
func (b *Backend) Routable() bool { return b.State() == StateHealthy }

// Info returns the last probe payload and its timestamp.
func (b *Backend) Info() (service.HealthInfo, time.Time) {
	b.mu.Lock()
	defer b.mu.Unlock()
	return b.info, b.probed
}

// setDrain flips the operator drain bit (persistence is the router's job).
func (b *Backend) setDrain(drained bool) {
	b.mu.Lock()
	b.opDrain = drained
	b.mu.Unlock()
}

// observe folds one probe outcome into the breaker. A success (any HTTP
// response, 200 or 503) proves liveness: failures reset, death clears,
// and the payload updates. An error counts toward the threshold; crossing
// it returns died=true exactly once per transition, which is the
// failover trigger.
func (b *Backend) observe(hi *service.HealthInfo, ok bool, err error, threshold int) (died bool) {
	b.mu.Lock()
	defer b.mu.Unlock()
	b.probed = time.Now()
	if err != nil {
		b.failures++
		if b.failures >= threshold && !b.dead {
			b.dead = true
			return true
		}
		return false
	}
	b.failures = 0
	b.dead = false
	b.info = *hi
	// A 503 with a drain status is the backend announcing its own
	// rollout; anything else unhealthy (e.g. "closed") reads as draining
	// too — alive, answering, but not accepting.
	b.selfDrain = !ok
	return false
}

// probe runs one bounded health check against the backend.
func (b *Backend) probe(ctx context.Context, timeout time.Duration, threshold int) (died bool) {
	pctx, cancel := context.WithTimeout(ctx, timeout)
	defer cancel()
	hi, ok, err := b.client.ProbeHealth(pctx)
	return b.observe(hi, ok, err, threshold)
}

// markDead force-trips the breaker (the router's synchronous verdict
// after a request to the backend failed and a confirm probe failed too,
// or a faultpoint dropped it). Returns true on the transition, false if
// already dead.
func (b *Backend) markDead() bool {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.dead {
		return false
	}
	b.dead = true
	b.failures = 0
	return true
}
