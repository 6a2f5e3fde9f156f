package ip

import (
	"encoding/binary"
	"fmt"

	"fbs/internal/core"
	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file is the mapping of FBS to IP (Section 7): the ip_fbs.c
// analogue. The FBS header is placed between the IP header and the IP
// payload — the paper's "short-cut form of IP encapsulation" — by a
// SecurityHook installed at the two 4.4BSD hook points.

// Principal returns the principal address for an IP host: its
// dotted-quad string.
func Principal(a Addr) principal.Address { return principal.Address(a.String()) }

// FiveTupleSelector builds the Section 7.1 flow attributes for an IP
// packet: <protocol, source address, source port, destination address,
// destination port>. For protocols without ports (raw IP, ICMP, IGMP),
// it degrades to host-level flows, per footnote 10.
func FiveTupleSelector(h *Header, payload []byte) core.FlowID {
	id := core.FlowID{
		Src:   Principal(h.Src),
		Dst:   Principal(h.Dst),
		Proto: h.Protocol,
	}
	if (h.Protocol == ProtoTCP || h.Protocol == ProtoUDP) && len(payload) >= 4 {
		id.SrcPort = binary.BigEndian.Uint16(payload[0:2])
		id.DstPort = binary.BigEndian.Uint16(payload[2:4])
	}
	return id
}

// SecretPolicy decides whether a packet's body should be encrypted (the
// security flow policy's confidentiality dimension, footnote 4).
type SecretPolicy func(h *Header, payload []byte) bool

// AlwaysSecret encrypts everything.
func AlwaysSecret(*Header, []byte) bool { return true }

// NeverSecret authenticates only (the FBS NOP-adjacent configuration of
// the throughput experiments still MACs; use core.Config knobs for a true
// NOP).
func NeverSecret(*Header, []byte) bool { return false }

// FBSHook adapts a core.Endpoint to the stack's SecurityHook, inserting
// and removing the security flow header between the IP header and
// payload.
type FBSHook struct {
	Endpoint *core.Endpoint
	Secret   SecretPolicy
}

// nopTransport satisfies transport.Transport for endpoints used only via
// Seal/Open (the IP mapping transmits through the IP stack, not through
// the endpoint).
type nopTransport struct{}

func (nopTransport) Send(transport.Datagram) error {
	return fmt.Errorf("ip: FBS hook endpoint does not transmit")
}
func (nopTransport) Receive() (transport.Datagram, error) {
	return transport.Datagram{}, transport.ErrClosed
}
func (nopTransport) Close() error { return nil }

// NewFBSHook builds the FBS/IP mapping for a host. The supplied core
// config needs Identity (with address Principal(hostAddr)), Directory and
// Verifier; the Transport is filled in by the mapping (the hook transmits
// through the IP stack, never through the endpoint). Flow attributes are
// the Figure 7 five-tuple, extracted by FiveTupleSelector and fed through
// SealFlow, so the caller's Policy (default: 10-minute ThresholdPolicy)
// applies over exactly the paper's attribute set.
func NewFBSHook(cfg core.Config, secret SecretPolicy) (*FBSHook, error) {
	cfg.Transport = nopTransport{}
	if secret == nil {
		secret = AlwaysSecret
	}
	ep, err := core.NewEndpoint(cfg)
	if err != nil {
		return nil, err
	}
	return &FBSHook{Endpoint: ep, Secret: secret}, nil
}

// OutputHook implements SecurityHook: FBSSend between output processing
// and fragmentation. The sealed datagram is appended to the stack-owned
// dst buffer via the endpoint's allocation-free seal path.
func (f *FBSHook) OutputHook(dst []byte, h *Header, payload []byte) ([]byte, error) {
	return f.Endpoint.SealFlowAppend(dst, transport.Datagram{
		Source:      Principal(h.Src),
		Destination: Principal(h.Dst),
		Payload:     payload,
	}, FiveTupleSelector(h, payload), f.Secret(h, payload))
}

// InputHook implements SecurityHook: FBSReceive between reassembly and
// dispatch.
func (f *FBSHook) InputHook(h *Header, payload []byte) ([]byte, error) {
	opened, err := f.Endpoint.Open(transport.Datagram{
		Source:      Principal(h.Src),
		Destination: Principal(h.Dst),
		Payload:     payload,
	})
	if err != nil {
		return nil, err
	}
	return opened.Payload, nil
}
