package core

import "errors"

// DropReason classifies why FBS processing refused a datagram. It is the
// single taxonomy shared by the endpoint reject counters, the IP stack's
// hook-drop accounting, the verdict on a trace's spans, and the /metrics
// label values, so a drop observed at any layer carries the same name
// everywhere.
type DropReason uint8

// The drop taxonomy. DropNone means the datagram was accepted.
const (
	DropNone DropReason = iota
	// DropStale: timestamp outside the freshness window (R3-R4).
	DropStale
	// DropBadMAC: MAC verification failed (R8-R9), including bad
	// padding, which is reported as an authentication failure to avoid
	// a padding oracle.
	DropBadMAC
	// DropReplay: exact duplicate within the freshness window (the
	// optional replay cache extension).
	DropReplay
	// DropMalformed: the security flow header could not be parsed.
	DropMalformed
	// DropNotForUs: destination is not this principal.
	DropNotForUs
	// DropAlgorithm: header named a MAC/cipher this endpoint is
	// configured not to accept, an unregistered cipher suite, or
	// MAC/mode bytes structurally impossible for the named suite.
	DropAlgorithm
	// DropDecrypt: the cipher could not be instantiated or run.
	DropDecrypt
	// DropKeying: the flow key could not be derived (certificate fetch,
	// verification, or master key computation failed).
	DropKeying
	// DropKeyingOverload: the keying admission gate's token bucket shed
	// the datagram before any keying work for an unknown peer began.
	DropKeyingOverload
	// DropPeerQuota: the source prefix exhausted its per-window keying
	// admission quota.
	DropPeerQuota
	// DropStateBudget: the soft-state memory budget is at its hard
	// limit and the datagram would have required fresh state.
	DropStateBudget
	// DropReplayBudget: the datagram verified but the budget hard limit
	// left no room to record its replay signature, so it was refused
	// rather than accepted unprotected (see ReplayRefused).
	DropReplayBudget
	// DropPrefilter: the edge pre-filter's per-prefix counting sketch
	// scored the source prefix above the shedding threshold and refused
	// the datagram before the header parse.
	DropPrefilter
	// DropBadCookie: a challenge-echo envelope failed cookie
	// verification (wrong epoch, expired stamp, truncation, or a MAC
	// not binding the source address).
	DropBadCookie
	// DropChallenged: an unknown peer's datagram was refused at the
	// challenge ladder level; a stateless cookie challenge was emitted
	// in its place so a legitimate sender can retry with an echo.
	DropChallenged

	// NumDropReasons sizes per-reason counter arrays.
	NumDropReasons = int(iota)
)

// dropNames are the canonical snake_case labels, used verbatim as the
// {reason=...} label values in Prometheus exposition.
var dropNames = [NumDropReasons]string{
	DropNone:           "none",
	DropStale:          "stale",
	DropBadMAC:         "bad_mac",
	DropReplay:         "replay",
	DropMalformed:      "malformed",
	DropNotForUs:       "not_for_us",
	DropAlgorithm:      "algorithm",
	DropDecrypt:        "decrypt",
	DropKeying:         "keying",
	DropKeyingOverload: "keying_overload",
	DropPeerQuota:      "peer_quota",
	DropStateBudget:    "state_budget",
	DropReplayBudget:   "replay_budget",
	DropPrefilter:      "prefilter",
	DropBadCookie:      "bad_cookie",
	DropChallenged:     "challenged",
}

// String returns the canonical label for the reason.
func (d DropReason) String() string {
	if int(d) < len(dropNames) {
		return dropNames[d]
	}
	return "unknown"
}

// DropReasons lists every countable reason, excluding DropNone, in a
// stable order (the iteration order for per-reason metric registration).
func DropReasons() []DropReason {
	out := make([]DropReason, 0, NumDropReasons-1)
	for d := DropStale; int(d) < NumDropReasons; d++ {
		out = append(out, d)
	}
	return out
}

// DropMap names the non-zero entries of a per-reason counter array: the
// form the JSON documents (/flows, gateway stats, fbsudp -stats-json)
// carry drops in. Never nil.
func DropMap(drops [NumDropReasons]uint64) map[string]uint64 {
	out := make(map[string]uint64)
	for _, d := range DropReasons() {
		if drops[d] > 0 {
			out[d.String()] = drops[d]
		}
	}
	return out
}

// DropReasonOf maps a receive-path error to its DropReason. Unrecognised
// errors (and nil) map to DropNone; callers that know the error came from
// Open can treat that as "other".
func DropReasonOf(err error) DropReason {
	switch {
	case err == nil:
		return DropNone
	case errors.Is(err, ErrStale):
		return DropStale
	case errors.Is(err, ErrBadMAC):
		return DropBadMAC
	case errors.Is(err, ErrReplay):
		return DropReplay
	case errors.Is(err, ErrMalformed):
		return DropMalformed
	case errors.Is(err, ErrNotForUs):
		return DropNotForUs
	case errors.Is(err, ErrAlgorithmRejected):
		return DropAlgorithm
	case errors.Is(err, ErrAlgorithmUnknown):
		return DropAlgorithm
	case errors.Is(err, ErrDecrypt):
		return DropDecrypt
	// The overload sheds are checked before the general keying error:
	// the receive path wraps them in ErrKeying for callers that only
	// distinguish "could not key", and the more specific reason must
	// win for accounting.
	case errors.Is(err, ErrKeyingOverload):
		return DropKeyingOverload
	case errors.Is(err, ErrPeerQuota):
		return DropPeerQuota
	case errors.Is(err, ErrStateBudget):
		return DropStateBudget
	case errors.Is(err, ErrReplayBudget):
		return DropReplayBudget
	// The pre-filter reasons are likewise checked before ErrKeying:
	// DropChallenged is a refusal of keying admission and may reach
	// callers wrapped in the general keying error.
	case errors.Is(err, ErrPrefilter):
		return DropPrefilter
	case errors.Is(err, ErrBadCookie):
		return DropBadCookie
	case errors.Is(err, ErrChallenged):
		return DropChallenged
	case errors.Is(err, ErrKeying):
		return DropKeying
	}
	return DropNone
}

// dropOr is DropReasonOf for a stage that knows what its failures mean:
// an error carrying no reason of its own maps to fallback.
func dropOr(err error, fallback DropReason) DropReason {
	if r := DropReasonOf(err); r != DropNone || err == nil {
		return r
	}
	return fallback
}
