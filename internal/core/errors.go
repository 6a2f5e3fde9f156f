package core

import "errors"

// Receive-side rejection errors. Each corresponds to a check in
// FBSReceive (Figure 4); callers typically count them and continue
// receiving.
var (
	// ErrStale means the timestamp fell outside the freshness window
	// (R3-R4): a delayed datagram, gross clock skew, or a replay of old
	// traffic.
	ErrStale = errors.New("fbs: timestamp outside freshness window")
	// ErrBadMAC means MAC verification failed (R8-R9): corruption,
	// forgery, or a key mismatch.
	ErrBadMAC = errors.New("fbs: message authentication code mismatch")
	// ErrReplay means the optional replay cache saw an exact duplicate
	// within the freshness window.
	ErrReplay = errors.New("fbs: duplicate datagram within freshness window")
	// ErrMalformed means the security flow header could not be parsed.
	ErrMalformed = errors.New("fbs: malformed security flow header")
	// ErrNotForUs means the datagram's destination is not this
	// principal.
	ErrNotForUs = errors.New("fbs: datagram addressed to another principal")
	// ErrAlgorithmRejected means the header's algorithm identification
	// named a MAC, cipher or mode this endpoint is configured not to
	// accept (a downgrade-resistance check).
	ErrAlgorithmRejected = errors.New("fbs: datagram algorithm not acceptable")
	// ErrAlgorithmUnknown means the header's algorithm identification
	// named a cipher with no registered suite, or MAC/mode bytes that
	// are structurally impossible for the named suite. Distinct from
	// ErrAlgorithmRejected: this is "no such algorithm", not "known but
	// refused by policy".
	ErrAlgorithmUnknown = errors.New("fbs: datagram algorithm unknown")
	// ErrAlgorithmRange is a configuration-time error: a cipher or mode
	// ID does not fit its 4-bit nibble in the header's packed algorithm
	// byte, or names no registered suite. Catching this at NewEndpoint
	// keeps algByte's nibble packing from silently truncating IDs on the
	// wire.
	ErrAlgorithmRange = errors.New("fbs: cipher/mode id out of range for algorithm field")
	// ErrDecrypt means the payload cipher could not be instantiated or
	// run (R10-R11).
	ErrDecrypt = errors.New("fbs: decryption failed")
	// ErrKeying means the flow key could not be derived: certificate
	// fetch, verification, or the master key computation failed (S2-S3 /
	// R5-R6).
	ErrKeying = errors.New("fbs: keying failed")

	// ErrKeyingOverload means the keying admission gate's token bucket
	// shed the datagram before any expensive keying work: too many
	// unknown peers asked to be keyed at once.
	ErrKeyingOverload = errors.New("fbs: keying admission shed (overload)")
	// ErrStateBudget means the soft-state memory budget is at its hard
	// limit and the datagram would have required fresh state. Soft
	// state makes this always safe to do: a later datagram retries once
	// pressure sweeps reclaim room.
	ErrStateBudget = errors.New("fbs: soft-state memory budget exhausted")
	// ErrReplayBudget means the datagram verified but the budget hard
	// limit left no room to record its replay signature; it is refused
	// rather than accepted unprotected, because an unrecorded (or
	// evicted) signature could be replayed within the freshness window.
	ErrReplayBudget = errors.New("fbs: replay window full, datagram refused unrecorded")

	// ErrPrefilter means the edge pre-filter's per-prefix counting
	// sketch scored the datagram's source prefix above the shedding
	// threshold: recent traffic from that prefix was dominated by
	// forgeries or sheds, so the datagram was refused before the header
	// was even parsed.
	ErrPrefilter = errors.New("fbs: source prefix shed by pre-filter sketch")
	// ErrBadCookie means the datagram carried a challenge-echo envelope
	// whose cookie failed verification: wrong secret epoch, expired
	// stamp, truncated frame, or a MAC that does not bind the source
	// address. Only a forged or badly damaged echo lands here — a
	// legitimate sender echoes the exact cookie it was handed.
	ErrBadCookie = errors.New("fbs: challenge cookie verification failed")
	// ErrChallenged means the datagram came from an unknown peer while
	// the pre-filter ladder was at the challenge level: instead of being
	// admitted to keying it was refused, and a stateless cookie
	// challenge was emitted so a legitimate sender can retry with an
	// echo that proves return routability.
	ErrChallenged = errors.New("fbs: unknown peer challenged, retry with cookie echo")

	// ErrChallengeAbsorbed signals that a received datagram was a
	// challenge control frame addressed to us: the cookie was absorbed
	// into the sender-side jar and there is no payload to deliver. It
	// maps to DropNone — the frame is accounted by CookiesLearned, not
	// as a refused datagram — and receive loops typically treat it like
	// any other non-fatal receive error and continue.
	ErrChallengeAbsorbed = errors.New("fbs: challenge frame absorbed")
)
