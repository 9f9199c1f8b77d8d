// Package serve turns the detector into a long-lived, multi-tenant network
// service: pmserved accepts the streaming trace encoding
// (trace.Writer/Reader) over TCP from many concurrent clients, runs one
// detector session per connection on the existing core engines, and exposes
// an operational HTTP surface (health, metrics, report pull).
//
// The wire protocol is deliberately small. A connection opens with one
// line-based handshake of at most 4096 bytes, newline included:
//
//	client → server:  PMSERVE/1 tenant=<name> model=<model> drain=<eager|lazy> shards=<n>\n
//	server → client:  OK session=<id>\n        (or: ERR <reason>\n)
//
// followed by the raw binary trace stream (magic header + fixed-width
// records, exactly what trace.Writer emits). The client half-closes its
// write side at end of stream; the server finalizes the session's detector
// and answers with one report frame:
//
//	server → client:  REPORT <ok|failed> <len>\n<len bytes of report summary>
//
// A session whose stream is truncated or corrupt, or whose detector
// panicked mid-stream, is poisoned: its report carries report.Failure
// entries and the frame status is "failed". Reports are also pullable over
// HTTP at /report/<session> after the session finishes.
package serve

import (
	"fmt"
	"strconv"
	"strings"

	"pmdebugger/internal/rules"
)

// ProtocolVersion is the handshake token this server speaks.
const ProtocolVersion = "PMSERVE/1"

// Drain disciplines a session can request: eager runs detection as slabs
// arrive (a spare core per session overlaps decode and analysis); lazy
// parks the consumer and defers analysis WITCHER-style until the stream
// ends or the ring fills, minimizing CPU while the tenant is bursting.
const (
	DrainEager = "eager"
	DrainLazy  = "lazy"
)

// Hello is the parsed session handshake.
type Hello struct {
	// Tenant names the client for per-tenant metrics; sessions of the same
	// tenant aggregate. Letters, digits, '.', '_' and '-' only.
	Tenant string
	// Model is the persistency model of the streamed trace.
	Model rules.Model
	// Drain selects the session's drain discipline (DrainEager default).
	Drain string
	// Shards asks for a sharded detector session: when the model permits
	// strand-sharded delivery (core.Shardable), the session fans out across
	// this many per-strand engines; otherwise it degrades — loudly, in the
	// session record — to a single engine.
	Shards int
}

// encode renders the handshake line (without the trailing newline).
func (h Hello) encode() string {
	var sb strings.Builder
	sb.WriteString(ProtocolVersion)
	fmt.Fprintf(&sb, " tenant=%s", h.Tenant)
	fmt.Fprintf(&sb, " model=%s", h.Model)
	drain := h.Drain
	if drain == "" {
		drain = DrainEager
	}
	fmt.Fprintf(&sb, " drain=%s", drain)
	if h.Shards > 1 {
		fmt.Fprintf(&sb, " shards=%d", h.Shards)
	}
	return sb.String()
}

// parseHello parses and validates a handshake line.
func parseHello(line string) (Hello, error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) == 0 || fields[0] != ProtocolVersion {
		return Hello{}, fmt.Errorf("serve: bad handshake (want %s ...)", ProtocolVersion)
	}
	h := Hello{Tenant: "default", Drain: DrainEager}
	for _, f := range fields[1:] {
		key, val, ok := strings.Cut(f, "=")
		if !ok {
			return Hello{}, fmt.Errorf("serve: bad handshake field %q", f)
		}
		switch key {
		case "tenant":
			if !validTenant(val) {
				return Hello{}, fmt.Errorf("serve: bad tenant %q (letters, digits, '.', '_', '-')", val)
			}
			h.Tenant = val
		case "model":
			m, err := rules.ParseModel(val)
			if err != nil {
				return Hello{}, fmt.Errorf("serve: %w", err)
			}
			h.Model = m
		case "drain":
			if val != DrainEager && val != DrainLazy {
				return Hello{}, fmt.Errorf("serve: bad drain %q (eager or lazy)", val)
			}
			h.Drain = val
		case "shards":
			n, err := strconv.Atoi(val)
			if err != nil || n < 0 {
				return Hello{}, fmt.Errorf("serve: bad shards %q", val)
			}
			h.Shards = n
		default:
			return Hello{}, fmt.Errorf("serve: unknown handshake field %q", key)
		}
	}
	return h, nil
}

func validTenant(s string) bool {
	if s == "" || len(s) > 64 {
		return false
	}
	for _, r := range s {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9',
			r == '.', r == '_', r == '-':
		default:
			return false
		}
	}
	return true
}

// parseReportFrame parses the "REPORT <status> <len>" header line.
func parseReportFrame(line string) (status string, size int, err error) {
	fields := strings.Fields(strings.TrimSpace(line))
	if len(fields) != 3 || fields[0] != "REPORT" {
		return "", 0, fmt.Errorf("serve: bad report frame %q", strings.TrimSpace(line))
	}
	size, err = strconv.Atoi(fields[2])
	if err != nil || size < 0 {
		return "", 0, fmt.Errorf("serve: bad report length in %q", strings.TrimSpace(line))
	}
	return fields[1], size, nil
}
