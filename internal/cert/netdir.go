package cert

import (
	"encoding/binary"
	"fmt"
	"sync"
	"time"

	"fbs/internal/principal"
	"fbs/internal/transport"
)

// This file implements the network half of Figure 5: on a PVC miss the
// master key daemon fetches the peer's public-value certificate "from
// some certificate authority on the network". The fetch deliberately
// travels OUTSIDE FBS — the secure flow bypass — because securing it
// would create a circularity (the fetch would need a key, which would
// need a fetch...), and it does not need securing because certificates
// are verified on receipt (Section 5.3).
//
// The protocol is a minimal request/response over the raw datagram
// transport:
//
//	request:  'C' 'Q' | reqID(8) | address (length-prefixed)
//	response: 'C' 'R' | reqID(8) | status(1) | certificate bytes
const (
	dirMagic0 = 'C'
	dirReqTag = 'Q'
	dirRspTag = 'R'

	dirStatusOK       = 0
	dirStatusNotFound = 1
)

// DirectoryServer answers certificate requests over a datagram
// transport. Run exactly one Serve loop per server transport.
type DirectoryServer struct {
	// Source answers the lookups (typically a StaticDirectory the CA
	// publishes into).
	Source Directory

	tr transport.Transport
}

// NewDirectoryServer attaches a server to a transport endpoint.
func NewDirectoryServer(tr transport.Transport, source Directory) *DirectoryServer {
	return &DirectoryServer{Source: source, tr: tr}
}

// Serve processes requests until the transport closes.
func (s *DirectoryServer) Serve() {
	for {
		dg, err := s.tr.Receive()
		if err != nil {
			return
		}
		reqID, addr, err := parseDirRequest(dg.Payload)
		if err != nil {
			continue // not a directory request; ignore
		}
		resp := []byte{dirMagic0, dirRspTag}
		resp = binary.BigEndian.AppendUint64(resp, reqID)
		if c, err := s.Source.Lookup(addr); err == nil {
			resp = append(resp, dirStatusOK)
			resp = append(resp, c.Marshal()...)
		} else {
			resp = append(resp, dirStatusNotFound)
		}
		s.tr.Send(transport.Datagram{Destination: dg.Source, Payload: resp})
	}
}

func parseDirRequest(b []byte) (uint64, principal.Address, error) {
	if len(b) < 2+8 || b[0] != dirMagic0 || b[1] != dirReqTag {
		return 0, "", fmt.Errorf("cert: not a directory request")
	}
	reqID := binary.BigEndian.Uint64(b[2:10])
	addr, _, err := principal.DecodeAddress(b[10:])
	if err != nil {
		return 0, "", err
	}
	return reqID, addr, nil
}

// NetworkDirectory is the client side: a Directory whose lookups travel
// over a datagram transport to a DirectoryServer. It is what a real
// deployment plugs into core.Config.Directory, together with a Bypass
// predicate matching the server's address so the requests skip FBS
// processing.
type NetworkDirectory struct {
	// Server is the directory server's principal address.
	Server principal.Address
	// Timeout bounds each fetch round trip; default one second.
	Timeout time.Duration
	// Retries is how many times a fetch is retried on timeout (the
	// transport is a datagram service: requests can be lost); default 3.
	Retries int

	tr transport.Transport

	mu      sync.Mutex
	nextID  uint64
	pending map[uint64]chan *Certificate
	started bool
}

// NewNetworkDirectory creates a client over its own transport endpoint.
// The transport must be dedicated to this client (the receive loop
// consumes everything arriving on it).
func NewNetworkDirectory(tr transport.Transport, server principal.Address) *NetworkDirectory {
	return &NetworkDirectory{
		Server:  server,
		Timeout: time.Second,
		Retries: 3,
		tr:      tr,
		pending: make(map[uint64]chan *Certificate),
	}
}

// receiveLoop dispatches responses to waiting lookups.
func (d *NetworkDirectory) receiveLoop() {
	for {
		dg, err := d.tr.Receive()
		if err != nil {
			return
		}
		b := dg.Payload
		if len(b) < 2+8+1 || b[0] != dirMagic0 || b[1] != dirRspTag {
			continue
		}
		reqID := binary.BigEndian.Uint64(b[2:10])
		var c *Certificate
		if b[10] == dirStatusOK {
			if parsed, err := Unmarshal(b[11:]); err == nil {
				c = parsed
			}
		}
		d.mu.Lock()
		ch, ok := d.pending[reqID]
		delete(d.pending, reqID)
		d.mu.Unlock()
		if ok {
			ch <- c
		}
	}
}

// Lookup implements Directory by asking the server over the network.
func (d *NetworkDirectory) Lookup(addr principal.Address) (*Certificate, error) {
	d.mu.Lock()
	if !d.started {
		d.started = true
		go d.receiveLoop()
	}
	d.mu.Unlock()
	timeout := d.Timeout
	if timeout <= 0 {
		timeout = time.Second
	}
	tries := d.Retries + 1
	if tries < 1 {
		tries = 1
	}
	for attempt := 0; attempt < tries; attempt++ {
		d.mu.Lock()
		d.nextID++
		reqID := d.nextID
		ch := make(chan *Certificate, 1)
		d.pending[reqID] = ch
		d.mu.Unlock()

		req := []byte{dirMagic0, dirReqTag}
		req = binary.BigEndian.AppendUint64(req, reqID)
		req = append(req, addr.Wire()...)
		if err := d.tr.Send(transport.Datagram{Destination: d.Server, Payload: req}); err != nil {
			return nil, fmt.Errorf("cert: sending directory request: %w", err)
		}
		select {
		case c := <-ch:
			if c == nil {
				return nil, fmt.Errorf("cert: directory has no certificate for %q", addr)
			}
			return c, nil
		case <-time.After(timeout):
			d.mu.Lock()
			delete(d.pending, reqID)
			d.mu.Unlock()
		}
	}
	return nil, fmt.Errorf("cert: directory fetch for %q timed out after %d attempts", addr, tries)
}
