package node

import (
	"time"

	"epidemic/internal/core"
	"epidemic/internal/timestamp"
)

// EventKind classifies node lifecycle events.
type EventKind int

const (
	// EventAntiEntropy : one anti-entropy conversation finished.
	EventAntiEntropy EventKind = iota + 1
	// EventRumor : one rumor-mongering round finished.
	EventRumor
	// EventRedistribute : repaired updates were re-hotted or re-mailed
	// (§1.5).
	EventRedistribute
	// EventGC : death-certificate expiry ran.
	EventGC
	// EventMailFailed : a direct-mail posting failed outright. Count is
	// the entries in the failed send; the outbox re-queues them.
	EventMailFailed
	// EventUpdate : a client write (update or delete) was accepted at this
	// replica — the update's origination, time zero of its propagation.
	EventUpdate
	// EventApply : an update originated elsewhere changed this replica
	// (via mail, a rumor exchange, or an anti-entropy repair) — this
	// site's infection timestamp for that update.
	EventApply
)

// String names the kind.
func (k EventKind) String() string {
	switch k {
	case EventAntiEntropy:
		return "anti-entropy"
	case EventRumor:
		return "rumor"
	case EventRedistribute:
		return "redistribute"
	case EventGC:
		return "gc"
	case EventMailFailed:
		return "mail-failed"
	case EventUpdate:
		return "update"
	case EventApply:
		return "apply"
	default:
		return "invalid"
	}
}

// Event is one observable node action. Fields are populated per kind:
// anti-entropy events carry Peer and Stats; rumor events Peer; update and
// apply events Key and Stamp (apply events also Peer when the source peer
// is known); redistribute events Keys; GC events Count (dropped
// certificates); mail failures Peer.
type Event struct {
	Kind  EventKind
	Peer  timestamp.SiteID
	Stats core.ExchangeStats
	Keys  []string
	Count int
	Key   string
	Stamp timestamp.T
	// Duration is the wall-clock time the exchange took; set on
	// anti-entropy and rumor events, zero elsewhere. It feeds the
	// per-mechanism exchange-latency histograms in the cluster digest.
	Duration time.Duration
}

// emit delivers an event to the configured observer. It must be called
// WITHOUT n.mu held: observers may call back into the node.
func (n *Node) emit(e Event) {
	if fn := n.onEvent.Load(); fn != nil {
		(*fn)(e)
	}
}
