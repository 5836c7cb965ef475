// Package trace implements per-update provenance for the epidemic
// protocols: every application of an update at a replica produces a hop
// span (who sent it, by which mechanism, after how many hops), and
// exchange payloads carry a compact provenance envelope so hop counts are
// causal — stamped by the sender — rather than inferred after the fact.
//
// The paper's experimental observables (§1.4: t_last, t_avg, residue,
// traffic per mechanism) are distributions over exactly this information;
// package trace captures it on live clusters, where the simulator's
// god's-eye Propagation tracker is unavailable. Spans from all replicas
// federate into an infection tree (see Assemble) reproducing those
// observables per update.
//
// The package sits below node and transport in the import order: it may
// import only timestamp and store, so both the replica runtime and the
// wire protocol can record into it.
package trace

import (
	"encoding/json"
	"fmt"
	"sync"

	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// Mechanism identifies which epidemic process delivered an update to a
// replica.
type Mechanism uint8

const (
	// MechUnknown marks a span whose delivery mechanism was not recorded.
	MechUnknown Mechanism = iota
	// MechOrigin marks the update's origination: a local client write
	// (hop 0 of its propagation).
	MechOrigin
	// MechDirectMail is a PostMail delivery (§1.2).
	MechDirectMail
	// MechRumorPush is a rumor pushed by the sender (§1.4).
	MechRumorPush
	// MechRumorPull is a rumor the receiver pulled (§1.4).
	MechRumorPull
	// MechAntiEntropy is an anti-entropy repair outside the peel-back
	// rounds (recent-update lists, full compares; §1.3).
	MechAntiEntropy
	// MechPeelBack is a repair shipped by a peel-back batch (§1.3, §1.5).
	MechPeelBack
)

// String names the mechanism as used in rendered trees, JSON and DOT
// output.
func (m Mechanism) String() string {
	switch m {
	case MechOrigin:
		return "origin"
	case MechDirectMail:
		return "direct-mail"
	case MechRumorPush:
		return "rumor-push"
	case MechRumorPull:
		return "rumor-pull"
	case MechAntiEntropy:
		return "anti-entropy"
	case MechPeelBack:
		return "peel-back"
	default:
		return "unknown"
	}
}

// MarshalJSON renders the mechanism as its name.
func (m Mechanism) MarshalJSON() ([]byte, error) { return json.Marshal(m.String()) }

// UnmarshalJSON accepts a mechanism name.
func (m *Mechanism) UnmarshalJSON(b []byte) error {
	var s string
	if err := json.Unmarshal(b, &s); err != nil {
		return err
	}
	for _, c := range []Mechanism{MechOrigin, MechDirectMail, MechRumorPush,
		MechRumorPull, MechAntiEntropy, MechPeelBack} {
		if c.String() == s {
			*m = c
			return nil
		}
	}
	if s == "unknown" {
		*m = MechUnknown
		return nil
	}
	return fmt.Errorf("trace: unknown mechanism %q", s)
}

// HopUnknown is the hop count of a span whose causal distance from the
// origin could not be established (the sender carried no envelope, or its
// own hop count was unknown).
const HopUnknown int32 = -1

// SiteUnknown marks an unidentified sender. Site 0 is a real site in
// simulated clusters, so "unknown" needs an out-of-band value.
const SiteUnknown timestamp.SiteID = -1

// Hop is the provenance envelope an exchange payload carries alongside
// each entry: who is sending it and how many hops the update has taken to
// reach the sender. The receiver's hop count is Count+1, making hop
// numbers causal rather than inferred. The zero value means "no envelope"
// (Valid false) — a nil envelope slice costs nothing on the wire, keeping
// disabled tracing free.
type Hop struct {
	// Parent is the sending site.
	Parent timestamp.SiteID
	// Count is the sender's hop count for the update (0 at the origin),
	// or HopUnknown.
	Count int32
	// Valid distinguishes a real envelope from the zero value.
	Valid bool
}

// Sender returns the sending site, or SiteUnknown without an envelope.
func (h Hop) Sender() timestamp.SiteID {
	if h.Valid {
		return h.Parent
	}
	return SiteUnknown
}

// Span is one hop of one update's propagation: the application of a
// specific version (Stamp) at site To, delivered by From via Mech. At is
// in stamp units (wall nanoseconds on real nodes, ticks in simulation);
// Round is the receiving node's exchange-round counter.
type Span struct {
	Seq   uint64           `json:"seq"`
	Key   string           `json:"key"`
	Stamp timestamp.T      `json:"stamp"`
	From  timestamp.SiteID `json:"from"`
	To    timestamp.SiteID `json:"to"`
	Mech  Mechanism        `json:"mechanism"`
	Hop   int32            `json:"hop"`
	At    int64            `json:"at"`
	Round uint64           `json:"round"`
}

// Dump is the wire-friendly span report served by gossipd's TRACE verb
// and /trace admin route, and what gossipctl federates per replica.
type Dump struct {
	Site  timestamp.SiteID `json:"site"`
	Spans []Span           `json:"spans"`
}

// DefaultRingSize bounds the span ring when no capacity is given.
const DefaultRingSize = 4096

// curVersion is the tracer's current knowledge about one key: the newest
// stamp it has seen applied and the hop count it arrived with.
type curVersion struct {
	stamp timestamp.T
	hop   int32
}

// Tracer records hop spans into a bounded ring and answers provenance
// envelopes for outbound entries. A nil *Tracer is valid and disables
// everything: every method is nil-safe, so call sites carry no
// tracing-enabled branches.
type Tracer struct {
	site timestamp.SiteID

	mu   sync.Mutex
	buf  []Span
	next uint64 // total spans ever recorded
	cur  map[string]curVersion
}

// NewTracer builds a tracer for one site retaining the last capacity
// spans (DefaultRingSize when capacity <= 0). The per-key hop table is
// bounded by the same capacity, evicting the key with the oldest stamp.
func NewTracer(site timestamp.SiteID, capacity int) *Tracer {
	if capacity <= 0 {
		capacity = DefaultRingSize
	}
	return &Tracer{
		site: site,
		buf:  make([]Span, capacity),
		cur:  make(map[string]curVersion),
	}
}

// Site returns the tracer's site ID.
func (t *Tracer) Site() timestamp.SiteID { return t.site }

// record appends one span. Caller holds t.mu.
func (t *Tracer) record(sp Span) {
	sp.Seq = t.next
	t.buf[t.next%uint64(len(t.buf))] = sp
	t.next++
}

// setCur updates the per-key hop table, keeping only the newest stamp per
// key and evicting the oldest-stamped key at capacity. Caller holds t.mu.
func (t *Tracer) setCur(key string, stamp timestamp.T, hop int32) {
	if cv, ok := t.cur[key]; ok {
		if stamp.Less(cv.stamp) {
			return // stale version
		}
		t.cur[key] = curVersion{stamp: stamp, hop: hop}
		return
	}
	for len(t.cur) >= len(t.buf) {
		victim := ""
		var oldest timestamp.T
		first := true
		for k, cv := range t.cur {
			if first || cv.stamp.Less(oldest) {
				victim, oldest, first = k, cv.stamp, false
			}
		}
		delete(t.cur, victim)
	}
	t.cur[key] = curVersion{stamp: stamp, hop: hop}
}

// RecordLocal records an update's origination at this site: hop 0, the
// span's From equal to its To, At equal to the stamp's time component
// (time zero of the propagation).
func (t *Tracer) RecordLocal(key string, stamp timestamp.T, round uint64) {
	if t == nil {
		return
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setCur(key, stamp, 0)
	t.record(Span{
		Key: key, Stamp: stamp,
		From: t.site, To: t.site,
		Mech: MechOrigin, Hop: 0,
		At: stamp.Time, Round: round,
	})
}

// RecordApply records the application of an update that originated
// elsewhere. env is the provenance envelope the entry arrived with (zero
// Hop when the sender carried none); from identifies the sender when it
// is known out of band (transport request headers, exchange stats) and is
// superseded by the envelope's Parent when an envelope is present. at is
// the receiving replica's clock reading, in stamp units.
func (t *Tracer) RecordApply(key string, stamp timestamp.T, from timestamp.SiteID, env Hop, mech Mechanism, at int64, round uint64) {
	if t == nil {
		return
	}
	hop := HopUnknown
	if env.Valid && env.Count >= 0 {
		hop = env.Count + 1
	}
	src := from
	if env.Valid {
		src = env.Parent
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	t.setCur(key, stamp, hop)
	t.record(Span{
		Key: key, Stamp: stamp,
		From: src, To: t.site,
		Mech: mech, Hop: hop,
		At: at, Round: round,
	})
}

// Envelope returns the provenance envelope for sending key at the given
// version from this site: Parent is this site, Count the hop count the
// version arrived here with (HopUnknown when the tracer has no record of
// that exact version). A nil tracer returns the zero Hop — no envelope.
func (t *Tracer) Envelope(key string, stamp timestamp.T) Hop {
	if t == nil {
		return Hop{}
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.envelopeLocked(key, stamp)
}

func (t *Tracer) envelopeLocked(key string, stamp timestamp.T) Hop {
	h := Hop{Parent: t.site, Count: HopUnknown, Valid: true}
	if cv, ok := t.cur[key]; ok && cv.stamp == stamp {
		h.Count = cv.hop
	}
	return h
}

// Envelopes returns one envelope per entry, or nil for a nil tracer or an
// empty batch — the nil slice is what keeps disabled tracing nearly free
// on the wire (one zero count byte).
func (t *Tracer) Envelopes(entries []store.Entry) []Hop {
	if t == nil || len(entries) == 0 {
		return nil
	}
	out := make([]Hop, len(entries))
	t.mu.Lock()
	defer t.mu.Unlock()
	for i, e := range entries {
		out[i] = t.envelopeLocked(e.Key, e.Stamp)
	}
	return out
}

// Len returns the number of spans currently retained.
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	if t.next < uint64(len(t.buf)) {
		return int(t.next)
	}
	return len(t.buf)
}

// Spans returns the retained spans, oldest first.
func (t *Tracer) Spans() []Span {
	return t.SpansFor("")
}

// SpansFor returns the retained spans for one key (all keys when key is
// empty), oldest first.
func (t *Tracer) SpansFor(key string) []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	n := uint64(len(t.buf))
	start := uint64(0)
	if t.next > n {
		start = t.next - n
	}
	var out []Span
	for seq := start; seq < t.next; seq++ {
		sp := t.buf[seq%n]
		if key == "" || sp.Key == key {
			out = append(out, sp)
		}
	}
	return out
}

// DumpFor packages this tracer's spans for one key (all keys when key is
// empty) in the wire shape served by gossipd.
func (t *Tracer) DumpFor(key string) Dump {
	if t == nil {
		return Dump{Site: SiteUnknown}
	}
	return Dump{Site: t.site, Spans: t.SpansFor(key)}
}
