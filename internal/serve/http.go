package serve

import (
	"encoding/json"
	"net/http"
	"sort"
	"strings"
	"time"
)

// Metrics is the /metrics JSON document: fleet-wide throughput and health
// counters plus the per-tenant aggregation.
type Metrics struct {
	UptimeSec      float64 `json:"uptime_sec"`
	ActiveSessions int64   `json:"active_sessions"`
	TotalSessions  uint64  `json:"total_sessions"`
	CleanSessions  uint64  `json:"clean_sessions"`

	EventsTotal  uint64  `json:"events_total"`
	BytesTotal   uint64  `json:"bytes_total"`
	EventsPerSec float64 `json:"events_per_sec"`
	BytesPerSec  float64 `json:"bytes_per_sec"`

	DecodeErrors  uint64 `json:"decode_errors"`
	HandlerPanics uint64 `json:"handler_panics"`
	// BackpressureNanos is the cumulative time session readers spent
	// handing decoded batches to their pipelines — staging plus any
	// blocking on a full slab ring. Growing much faster than wall clock
	// means detection, not decode, is the bottleneck.
	BackpressureNanos int64 `json:"backpressure_nanos"`

	Tenants map[string]TenantMetrics `json:"tenants"`
}

// TenantMetrics aggregates one tenant's sessions.
type TenantMetrics struct {
	Sessions int    `json:"sessions"`
	Active   int    `json:"active"`
	Events   uint64 `json:"events"`
	Bugs     int    `json:"bugs"`
	Failures int    `json:"failures"`
}

// SessionInfo is one entry of the /sessions listing.
type SessionInfo struct {
	ID       string `json:"id"`
	Tenant   string `json:"tenant"`
	State    string `json:"state"` // active, done, failed
	Drain    string `json:"drain"`
	Shards   int    `json:"shards"`
	Fallback string `json:"fallback,omitempty"` // why a sharded request degraded
	Events   uint64 `json:"events"`
	Bugs     int    `json:"bugs"`
	Failures int    `json:"failures"`
	Error    string `json:"error,omitempty"`
}

func (s *Server) httpMux() *http.ServeMux {
	mux := http.NewServeMux()
	mux.HandleFunc("/healthz", s.handleHealthz)
	mux.HandleFunc("/metrics", s.handleMetrics)
	mux.HandleFunc("/sessions", s.handleSessions)
	mux.HandleFunc("/report/", s.handleReport)
	return mux
}

func (s *Server) handleHealthz(w http.ResponseWriter, _ *http.Request) {
	s.mu.Lock()
	closing := s.closing
	s.mu.Unlock()
	if closing {
		http.Error(w, "draining", http.StatusServiceUnavailable)
		return
	}
	w.Write([]byte("ok\n"))
}

// MetricsSnapshot assembles the current Metrics document (also used by the
// HTTP handler, so in-process consumers need no HTTP round trip). It costs
// O(tenants + active sessions) under the server lock, however many
// sessions the server has finished.
func (s *Server) MetricsSnapshot() Metrics {
	uptime := time.Since(s.start).Seconds()
	if uptime <= 0 {
		uptime = 1e-9
	}
	m := Metrics{
		UptimeSec:         uptime,
		ActiveSessions:    s.active.Load(),
		TotalSessions:     s.totalSess.Load(),
		CleanSessions:     s.drainedClean.Load(),
		EventsTotal:       s.events.Load(),
		BytesTotal:        s.bytes.Load(),
		DecodeErrors:      s.decodeErrs.Load(),
		HandlerPanics:     s.panics.Load(),
		BackpressureNanos: s.stageNanos.Load(),
		Tenants:           map[string]TenantMetrics{},
	}
	m.EventsPerSec = float64(m.EventsTotal) / uptime
	m.BytesPerSec = float64(m.BytesTotal) / uptime
	s.mu.Lock()
	for name, ts := range s.tenants {
		m.Tenants[name] = TenantMetrics{
			Sessions: ts.sessions,
			Active:   ts.active,
			Events:   ts.events,
			Bugs:     ts.bugs,
			Failures: ts.failures,
		}
	}
	// Fold the live event counters of unfinished sessions in, so the tenant
	// view moves while a stream is in flight. finish moves a session's
	// count into its tenant's total in the same critical section that
	// takes it out of s.live, so no count is missed or counted twice.
	for sess := range s.live {
		tm := m.Tenants[sess.tenant]
		tm.Events += sess.events.Load()
		m.Tenants[sess.tenant] = tm
	}
	s.mu.Unlock()
	return m
}

func (s *Server) handleMetrics(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.MetricsSnapshot())
}

// Sessions lists every session, newest last.
func (s *Server) Sessions() []SessionInfo {
	s.mu.Lock()
	defer s.mu.Unlock()
	sessions := make([]*session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].seq < sessions[j].seq })
	out := make([]SessionInfo, 0, len(sessions))
	for _, sess := range sessions {
		state, _, failErr := sess.snapshotState()
		sess.mu.Lock()
		info := SessionInfo{
			ID:       sess.id,
			Tenant:   sess.tenant,
			State:    state,
			Drain:    sess.hello.Drain,
			Shards:   sess.shards,
			Fallback: sess.fallback,
			Events:   sess.events.Load(),
			Bugs:     sess.bugs,
			Failures: sess.failures,
			Error:    failErr,
		}
		sess.mu.Unlock()
		out = append(out, info)
	}
	return out
}

func (s *Server) handleSessions(w http.ResponseWriter, _ *http.Request) {
	w.Header().Set("Content-Type", "application/json")
	enc := json.NewEncoder(w)
	enc.SetIndent("", "  ")
	enc.Encode(s.Sessions())
}

func (s *Server) handleReport(w http.ResponseWriter, r *http.Request) {
	id := strings.TrimPrefix(r.URL.Path, "/report/")
	s.mu.Lock()
	sess := s.sessions[id]
	s.mu.Unlock()
	if sess == nil {
		http.Error(w, "unknown session", http.StatusNotFound)
		return
	}
	state, summary, failErr := sess.snapshotState()
	switch state {
	case "active":
		http.Error(w, "session still streaming", http.StatusConflict)
	default:
		if failErr != "" {
			w.Header().Set("X-Session-Error", failErr)
		}
		w.Header().Set("X-Session-State", state)
		w.Write([]byte(summary))
	}
}
