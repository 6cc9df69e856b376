package core

import (
	"fmt"
	"sync"
	"time"

	"mxn/internal/comm"
	"mxn/internal/obs"
)

// Liveness: rank-failure detection for the framework.
//
// The paper's transfer protocols assume both cohorts stay fully alive; a
// single crashed rank turns a redistribution or a collective PRMI call
// into a hang. This file supplies the missing primitive: a Membership view
// shared by a cohort, advanced to a new *epoch* whenever a rank is declared
// dead, fed either by explicit MarkDown calls (e.g. a transport error) or
// by the heartbeat prober below. Transfer layers (fenced redist.Transfers,
// prmi epoch stamping) fence their traffic with the epoch so survivors can
// distinguish current messages from a dead rank's leftovers, and surface
// *ErrRankDown instead of hanging.

var (
	mHeartbeatsSent  = obs.Default().Counter("core.heartbeats_sent")
	mHeartbeatMisses = obs.Default().Counter("core.heartbeat_misses")
	mHeartbeatRTT    = obs.Default().Histogram("core.heartbeat_rtt_ns")
	mRanksDown       = obs.Default().Counter("core.ranks_down")
)

// ErrRankDown reports that a peer rank was declared dead. Epoch is the
// membership epoch in force when the failure was observed, so callers can
// tell a fresh failure from one they already re-planned around.
type ErrRankDown struct {
	Rank  int
	Epoch uint64
}

func (e *ErrRankDown) Error() string {
	return fmt.Sprintf("core: rank %d is down (membership epoch %d)", e.Rank, e.Epoch)
}

// Membership is a cohort's shared view of which ranks are alive. The epoch
// starts at 1 and increases by one each time the view changes — a rank
// newly marked down, or a phase of a planned resize (see ProposeResize in
// resize.go) — so any two views with the same epoch agree on the alive set
// and the cohort width. Epoch 0 is reserved to mean "unstamped" on the
// wire: a message carrying epoch 0 predates failure awareness and is never
// rejected as stale.
//
// The rank universe [0, Size()) is the index space of the liveness bitmap
// (typically a communicator group's rank space); the cohort width
// (Width()) is how many of those ranks are current cohort members. The
// two coincide until a resize commits a different width. The universe
// only grows (a resize that adds ranks extends it); indices of departed
// ranks are retained so a later grow can re-admit them.
//
// All methods are safe for concurrent use; one Membership value is
// typically shared by every local rank of a cohort plus its heartbeat
// goroutines.
type Membership struct {
	mu     sync.Mutex
	n      int
	width  int
	epoch  uint64
	down   []bool
	resize *Resize // in-flight two-phase resize, nil when none
}

// NewMembership returns an all-alive view over ranks [0, n) at epoch 1,
// with cohort width n.
func NewMembership(n int) *Membership {
	if n <= 0 {
		panic(fmt.Sprintf("core: NewMembership size %d", n))
	}
	return &Membership{n: n, width: n, epoch: 1, down: make([]bool, n)}
}

// Size returns the rank-universe size: the number of ranks the view
// tracks, dead or alive, cohort member or not. It grows when a resize
// admits ranks beyond the current universe and never shrinks.
func (m *Membership) Size() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.n
}

// Width returns the current cohort width: how many ranks of the universe
// are cohort members. It changes only when a resize commits.
func (m *Membership) Width() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.width
}

// Epoch returns the current membership epoch (≥ 1).
func (m *Membership) Epoch() uint64 {
	m.mu.Lock()
	defer m.mu.Unlock()
	return m.epoch
}

// IsAlive reports whether rank has not been marked down. Ranks outside
// [0, Size()) are reported dead.
func (m *Membership) IsAlive(rank int) bool {
	if rank < 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= m.n {
		return false
	}
	return !m.down[rank]
}

// MarkDown declares rank dead, bumping the epoch. It is idempotent: marking
// an already-dead rank changes nothing and reports false. newly reports
// whether this call was the one that killed it.
func (m *Membership) MarkDown(rank int) (newly bool) {
	if rank < 0 {
		return false
	}
	m.mu.Lock()
	defer m.mu.Unlock()
	if rank >= m.n || m.down[rank] {
		return false
	}
	m.down[rank] = true
	m.epoch++
	mRanksDown.Inc()
	return true
}

// NumAlive returns how many ranks are currently alive.
func (m *Membership) NumAlive() int {
	m.mu.Lock()
	defer m.mu.Unlock()
	alive := 0
	for _, d := range m.down {
		if !d {
			alive++
		}
	}
	return alive
}

// Alive returns the sorted list of alive ranks.
func (m *Membership) Alive() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]int, 0, m.n)
	for r, d := range m.down {
		if !d {
			out = append(out, r)
		}
	}
	return out
}

// Down returns the sorted list of dead ranks.
func (m *Membership) Down() []int {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := []int{}
	for r, d := range m.down {
		if d {
			out = append(out, r)
		}
	}
	return out
}

// AliveMask returns a snapshot indexed by rank: true = alive.
func (m *Membership) AliveMask() []bool {
	m.mu.Lock()
	defer m.mu.Unlock()
	out := make([]bool, m.n)
	for r, d := range m.down {
		out[r] = !d
	}
	return out
}

// DownError returns a typed *ErrRankDown for the lowest-numbered dead
// rank, or nil if everyone is alive. Transfer layers use it to convert a
// membership change into the error they surface.
func (m *Membership) DownError() error {
	m.mu.Lock()
	defer m.mu.Unlock()
	for r, d := range m.down {
		if d {
			return &ErrRankDown{Rank: r, Epoch: m.epoch}
		}
	}
	return nil
}

// Heartbeats.
//
// StartHeartbeats runs a failure detector for one local rank over its
// communicator: a responder goroutine echoes pings, and one prober
// goroutine per peer sends a ping every Interval and waits up to Interval
// for the echo. MissThreshold consecutive silent intervals mark the peer
// down in the shared Membership. An interval is silent only if no echo
// at all comes back in it: a late echo of an earlier ping also shows the
// peer alive, so a live peer on a loaded host whose echoes all come back
// a little late is not marked down. Detection latency is therefore about
// Interval × MissThreshold, and at most one interval more when an echo
// was still on its way as the peer crashed: a crashed peer (killed via
// World.Kill, or wedged) sends no echoes at all.

// HeartbeatConfig tunes a rank's failure detector. The zero value is not
// usable: Interval and MissThreshold must be positive (start from
// DefaultHeartbeatConfig and override). A zero or negative Interval would
// busy-spin the probers and a non-positive MissThreshold would declare a
// peer dead on the very first probe, so both are rejected with a typed
// *HeartbeatConfigError instead of being silently defaulted.
type HeartbeatConfig struct {
	// Interval between pings to each peer. Must be > 0.
	Interval time.Duration
	// MissThreshold is how many consecutive unanswered pings declare a
	// peer dead. Must be > 0.
	MissThreshold int
	// Tag is the base comm tag; Tag is used for pings and Tag+1 for
	// echoes, so it must not collide with application traffic. Zero or
	// negative selects the default, 1 << 28.
	Tag int
}

// DefaultHeartbeatConfig returns the recommended detector tuning: 50ms
// probes, 3 consecutive misses to declare death (~150ms detection
// latency), tag space 1<<28.
func DefaultHeartbeatConfig() HeartbeatConfig {
	return HeartbeatConfig{Interval: 50 * time.Millisecond, MissThreshold: 3, Tag: 1 << 28}
}

// HeartbeatConfigError reports an invalid HeartbeatConfig field.
type HeartbeatConfigError struct {
	Field  string
	Reason string
}

func (e *HeartbeatConfigError) Error() string {
	return fmt.Sprintf("core: invalid HeartbeatConfig.%s: %s", e.Field, e.Reason)
}

// Validate checks the config, returning a typed *HeartbeatConfigError for
// the first invalid field.
func (cfg HeartbeatConfig) Validate() error {
	if cfg.Interval <= 0 {
		return &HeartbeatConfigError{Field: "Interval", Reason: fmt.Sprintf("must be positive, got %v", cfg.Interval)}
	}
	if cfg.MissThreshold <= 0 {
		return &HeartbeatConfigError{Field: "MissThreshold", Reason: fmt.Sprintf("must be positive, got %d", cfg.MissThreshold)}
	}
	return nil
}

func (cfg HeartbeatConfig) withDefaults() HeartbeatConfig {
	if cfg.Tag <= 0 {
		cfg.Tag = 1 << 28
	}
	return cfg
}

// Heartbeater is a running failure detector; Stop shuts its goroutines
// down.
type Heartbeater struct {
	stop chan struct{}
	wg   sync.WaitGroup
}

// Stop terminates the responder and all probers and waits for them to
// exit; once it is called, no prober marks a peer down. Safe to call once.
func (h *Heartbeater) Stop() {
	close(h.stop)
	h.wg.Wait()
}

type heartbeatPing struct {
	From int // group rank of the prober
	Seq  uint64
}

// StartHeartbeats starts the failure detector for the calling rank of c,
// probing each group rank in peers and recording deaths in m. Membership
// ranks are c's group ranks, so the membership universe must cover the
// whole comm: m.Size() ≥ c.Size() (a resized membership may track more
// ranks than an old communicator). Every rank that should answer probes
// must run StartHeartbeats (or at least its responder); a rank that stops
// responding — for any reason — will be marked down by its probers.
//
// The config must pass Validate; an invalid Interval or MissThreshold
// returns a typed *HeartbeatConfigError rather than silently starting a
// busy-spinning or hair-trigger detector.
func StartHeartbeats(c *comm.Comm, m *Membership, cfg HeartbeatConfig, peers []int) (*Heartbeater, error) {
	if err := cfg.Validate(); err != nil {
		return nil, err
	}
	if m.Size() < c.Size() {
		return nil, fmt.Errorf("core: membership size %d < comm size %d", m.Size(), c.Size())
	}
	cfg = cfg.withDefaults()
	h := &Heartbeater{stop: make(chan struct{})}

	// Responder: echo every ping back to its prober on Tag+1.
	h.wg.Add(1)
	go func() {
		defer h.wg.Done()
		for {
			select {
			case <-h.stop:
				return
			default:
			}
			v, _, ok := c.RecvTimeout(comm.AnySource, cfg.Tag, cfg.Interval)
			if !ok {
				continue
			}
			ping := v.(heartbeatPing)
			c.Send(ping.From, cfg.Tag+1, ping.Seq)
		}
	}()

	for _, peer := range peers {
		if peer == c.Rank() {
			continue
		}
		h.wg.Add(1)
		go func(peer int) {
			defer h.wg.Done()
			misses := 0
			var seq uint64
			ticker := time.NewTicker(cfg.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-h.stop:
					return
				case <-ticker.C:
				}
				if !m.IsAlive(peer) {
					return // someone else already declared it
				}
				seq++
				start := time.Now()
				c.Send(peer, cfg.Tag, heartbeatPing{From: c.Rank(), Seq: seq})
				mHeartbeatsSent.Inc()
				// Wait for the echo of this ping. Any echo shows the
				// peer alive, a late one of an earlier ping too; only
				// this ping's own echo times the round trip.
				answered := false
				deadline := time.Now().Add(cfg.Interval)
				for remain := cfg.Interval; remain > 0; remain = time.Until(deadline) {
					v, _, ok := c.RecvTimeout(peer, cfg.Tag+1, remain)
					if !ok {
						break
					}
					answered = true
					if v.(uint64) == seq {
						mHeartbeatRTT.Observe(time.Since(start).Nanoseconds())
						break
					}
				}
				if answered {
					misses = 0
					continue
				}
				// Stopped while waiting: a stopped detector (its rank
				// crashed or shut down) hears no echoes, so it declares
				// no one.
				select {
				case <-h.stop:
					return
				default:
				}
				misses++
				mHeartbeatMisses.Inc()
				if misses >= cfg.MissThreshold {
					m.MarkDown(peer)
					return
				}
			}
		}(peer)
	}
	return h, nil
}
