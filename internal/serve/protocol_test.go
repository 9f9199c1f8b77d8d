package serve

import (
	"testing"

	"pmdebugger/internal/rules"
)

// FuzzParseHello feeds arbitrary handshake lines to the parser. It must
// never panic; every accepted line must describe a session the server can
// run (a valid tenant, a known model and drain, a non-negative shard
// count); and an accepted Hello must encode to a line within the server's
// limit that parses back to it. encode omits shards=0 and shards=1 alike,
// and both mean one engine, so the round trip compares them as equal.
func FuzzParseHello(f *testing.F) {
	for _, line := range badHandshakes {
		f.Add(line)
	}
	for _, m := range []rules.Model{rules.Strict, rules.Epoch, rules.Strand} {
		f.Add(Hello{Tenant: "tenant-1", Model: m, Drain: DrainLazy, Shards: 4}.encode() + "\n")
	}
	f.Fuzz(func(t *testing.T, line string) {
		h, err := parseHello(line)
		if err != nil {
			return
		}
		if !validTenant(h.Tenant) {
			t.Fatalf("accepted invalid tenant %q from %q", h.Tenant, line)
		}
		if _, err := rules.ParseModel(h.Model.String()); err != nil {
			t.Fatalf("accepted unknown model %d from %q", h.Model, line)
		}
		if h.Drain != DrainEager && h.Drain != DrainLazy {
			t.Fatalf("accepted drain %q from %q", h.Drain, line)
		}
		if h.Shards < 0 {
			t.Fatalf("accepted shards=%d from %q", h.Shards, line)
		}
		if n := len(h.encode()) + 1; n > maxHandshakeLine {
			t.Fatalf("%+v encodes to a %d-byte line, over the %d-byte limit", h, n, maxHandshakeLine)
		}
		back, err := parseHello(h.encode())
		if err != nil {
			t.Fatalf("encoded %+v as %q, which does not parse: %v", h, h.encode(), err)
		}
		if h.Shards == 1 {
			h.Shards = 0
		}
		if back != h {
			t.Fatalf("round trip of %q: got %+v, want %+v", line, back, h)
		}
	})
}
