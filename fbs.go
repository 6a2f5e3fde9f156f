// Package fbs is a Go implementation of the Flow-Based Security
// protocol (FBS) from Mittra and Woo, "A Flow-Based Approach to Datagram
// Security", SIGCOMM 1997.
//
// FBS secures datagram communications without sacrificing datagram
// semantics: no connection setup, no security-association negotiation,
// and no hard state at either end. Its two mechanisms are
//
//   - the flow association mechanism (FAM), which classifies outgoing
//     datagrams into flows under a pluggable security flow policy, and
//   - zero-message keying, which derives a per-flow key
//     K_f = H(sfl | K_{S,D} | S | D) from the implicit Diffie-Hellman
//     pair-based master key, so the receiver can compute the key from
//     the datagram alone.
//
// # Quick start
//
//	domain, _ := fbs.NewDomain("example") // a CA + directory
//	net := fbs.NewNetwork(fbs.Impairments{})
//
//	alice, _ := domain.NewEndpoint("alice", net)
//	bob, _ := domain.NewEndpoint("bob", net)
//
//	alice.SendTo("bob", []byte("hello, flows"), true /* encrypt */)
//	dg, _ := bob.Receive() // next verified datagram; refusals are counted and skipped
//
// Endpoints expose the full protocol surface — Seal/Open for embedding
// FBS under another protocol layer (see the IP mapping in
// fbs/internal/ip), policies, metrics, and the PVC/MKC/TFKC/RFKC cache
// hierarchy.
//
// The repository also contains the paper's complete experimental
// apparatus: see DESIGN.md for the system inventory and EXPERIMENTS.md
// for the reproduction of every table and figure.
package fbs

import (
	"fbs/internal/baseline"
	"fbs/internal/cert"
	"fbs/internal/core"
	"fbs/internal/cryptolib"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// Core protocol types, re-exported from the implementation package.
type (
	// Endpoint is one principal's FBS protocol instance.
	Endpoint = core.Endpoint
	// Config assembles an Endpoint; see NewEndpoint.
	Config = core.Config
	// Header is the security flow header carried by every datagram.
	Header = core.Header
	// SFL is a security flow label.
	SFL = core.SFL
	// FlowID is the attribute set a security flow policy distinguishes
	// flows by.
	FlowID = core.FlowID
	// Policy is a security flow policy: a mapper plus a sweeper.
	Policy = core.Policy
	// ThresholdPolicy is the paper's Section 7.1 idle-timeout policy.
	ThresholdPolicy = core.ThresholdPolicy
	// HostPairPolicy degrades FBS to host-pair granularity.
	HostPairPolicy = core.HostPairPolicy
	// Selector extracts flow attributes from outgoing datagrams.
	Selector = core.Selector
	// Snapshot is everything an endpoint counts, as one value
	// (Endpoint.Snapshot).
	Snapshot = core.Snapshot
	// Clock abstracts time (see SimClock for simulations).
	Clock = core.Clock
	// SimClock is a manually advanced clock.
	SimClock = core.SimClock
	// Timestamp is the header's minutes-since-1996 time value.
	Timestamp = core.Timestamp
)

// Observability. The taxonomy and the tracing hook live in core so the
// protocol package stays dependency-free; the collectors (span ring,
// histograms, Prometheus exposition, admin HTTP plane) are in
// fbs/internal/obs.
type (
	// DropReason classifies why FBS processing refused a datagram.
	DropReason = core.DropReason
	// Tracer receives the spans of sampled datagrams; see Config.Tracer.
	Tracer = core.Tracer
	// Span is one timed step of a sampled datagram: stage, duration,
	// verdict and annotations.
	Span = core.Span
)

// Indices into Snapshot.Drops — the paper's own receive checks; every
// other reason is reachable by name through DropReason.String — and into
// Snapshot.Caches.
const (
	DropStale  = core.DropStale
	DropBadMAC = core.DropBadMAC
	DropReplay = core.DropReplay

	CacheTFKC = core.CacheTFKC
	CacheRFKC = core.CacheRFKC
	CachePVC  = core.CachePVC
	CacheMKC  = core.CacheMKC
)

// Identity and naming.
type (
	// Address uniquely names a principal.
	Address = principal.Address
	// Identity is a principal with its Diffie-Hellman keying material.
	Identity = principal.Identity
	// Certificate binds an address to a public value under a CA
	// signature.
	Certificate = cert.Certificate
	// Directory serves certificates to the master key daemon.
	Directory = cert.Directory
)

// Transport.
type (
	// Datagram is a self-contained message between principals.
	Datagram = transport.Datagram
	// Transport is the underlying insecure datagram service.
	Transport = transport.Transport
	// Network is an in-memory datagram network with a fault model.
	Network = transport.Network
	// Impairments configures loss, duplication, reordering and
	// corruption.
	Impairments = transport.Impairments
)

// Batched data plane and sharding.
type (
	// BatchResult describes one datagram's outcome within a
	// SealBatch/OpenBatch call.
	BatchResult = core.BatchResult
	// BatchStats counts batch calls by log2 size class.
	BatchStats = core.BatchStats
	// ShardGroup partitions flows across per-core endpoint shards by
	// the flow hash (RSS-style steering).
	ShardGroup = core.ShardGroup
)

// NewShardGroup builds n endpoint shards, calling mk for each shard's
// Config. Shards share no locks, caches, or counters; steer outgoing
// datagrams with ShardOf/ShardOfPair and incoming ones with
// ShardOfIncoming so each flow's replay and FAM state stays on one
// shard.
func NewShardGroup(n int, mk func(shard int) (Config, error)) (*ShardGroup, error) {
	return core.NewShardGroup(n, mk)
}

// Sealer is the minimal protection interface shared by FBS and the
// baseline schemes (package fbs/internal/baseline).
type Sealer = baseline.Sealer

// DHGroup is a Diffie-Hellman group (prime modulus and generator).
type DHGroup = cryptolib.DHGroup

// Well-known groups.
var (
	// Oakley1 is the 768-bit MODP group.
	Oakley1 = cryptolib.Oakley1
	// Oakley2 is the 1024-bit MODP group (the default).
	Oakley2 = cryptolib.Oakley2
	// TestGroup is a 512-bit group for tests and examples only.
	TestGroup = cryptolib.TestGroup
)

// Receive-side rejection errors.
var (
	ErrStale     = core.ErrStale
	ErrBadMAC    = core.ErrBadMAC
	ErrReplay    = core.ErrReplay
	ErrMalformed = core.ErrMalformed
	ErrNotForUs  = core.ErrNotForUs
)

// ErrClosed is returned once a transport endpoint is closed.
var ErrClosed = transport.ErrClosed

// NewEndpoint builds an endpoint from an explicit Config. Most callers
// can use Domain.NewEndpoint instead, which wires the certificate
// machinery automatically.
func NewEndpoint(cfg Config) (*Endpoint, error) { return core.NewEndpoint(cfg) }

// NewNetwork creates an in-memory datagram network.
func NewNetwork(imp Impairments) *Network { return transport.NewNetwork(imp) }

// NewIdentity creates a principal identity in the default (Oakley group
// 2) Diffie-Hellman group.
func NewIdentity(addr Address) (*Identity, error) {
	return principal.NewIdentity(addr, cryptolib.Oakley2)
}

// FlowKey derives K_f = H(sfl | master | S | D); exposed for protocol
// analysis and interoperability tests.
func FlowKey(sfl SFL, master [16]byte, src, dst Address) [16]byte {
	return core.FlowKey(cryptolib.HashMD5, sfl, master, src, dst)
}

// FlowInfo is a point-in-time description of one live flow (see
// Endpoint.Flows).
type FlowInfo = core.FlowInfo
