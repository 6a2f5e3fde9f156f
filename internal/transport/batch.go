package transport

// Batched transport. The protocol's Send()/Receive() abstraction is one
// datagram per call, which on a real kernel socket means one syscall per
// datagram — the dominant fixed cost at line rate. BatchConn is the
// batched extension of that seam: implementations that can amortise the
// per-call overhead (sendmmsg/recvmmsg on Linux UDP, a single lock
// acquisition on the in-memory network) expose it, and the package
// helpers fall back to a loop of single calls everywhere else, so
// callers write one code path and get the amortisation where the
// platform offers it. The fallback is semantically identical by
// construction: a batch is exactly the sequence of its datagrams, in
// order, with each datagram subject to the same delivery model.
type BatchConn interface {
	Transport
	// SendBatch transmits the datagrams in order. It returns how many
	// were handed to the underlying service before an error stopped the
	// batch; n == len(dgs) and a nil error is the common case. Delivery
	// remains best-effort per datagram, and the payloads are owned, exactly
	// as with Send.
	SendBatch(dgs []Datagram) (int, error)
	// ReceiveBatch blocks until at least one datagram is available, then
	// fills buf with as many more as are ready without blocking again.
	// It returns the number received, or an error once the endpoint is
	// closed. A zero-length buf returns (0, nil) immediately.
	ReceiveBatch(buf []Datagram) (int, error)
}

// SendBatch transmits dgs over tr, using the transport's native batch
// path when it has one and a portable loop of Send calls otherwise. It
// returns how many datagrams were handed off before the first error.
func SendBatch(tr Transport, dgs []Datagram) (int, error) {
	if bc, ok := tr.(BatchConn); ok {
		return bc.SendBatch(dgs)
	}
	for i := range dgs {
		if err := tr.Send(dgs[i]); err != nil {
			return i, err
		}
	}
	return len(dgs), nil
}

// ReceiveBatch fills buf from tr: the transport's native batch receive
// when available, otherwise one blocking Receive (a portable Transport
// offers no way to ask "is more ready?" without blocking, so the loop
// fallback returns after the first datagram rather than stall the
// batch).
func ReceiveBatch(tr Transport, buf []Datagram) (int, error) {
	if bc, ok := tr.(BatchConn); ok {
		return bc.ReceiveBatch(buf)
	}
	if len(buf) == 0 {
		return 0, nil
	}
	dg, err := tr.Receive()
	if err != nil {
		return 0, err
	}
	buf[0] = dg
	return 1, nil
}

// SendBatch enqueues the whole batch under one network-lock
// acquisition; the fault model still draws per datagram, in order, so a
// batch is indistinguishable from a loop of Send calls to any observer
// of the delivery sequence.
func (p *netPort) SendBatch(dgs []Datagram) (int, error) {
	select {
	case <-p.closed:
		return 0, ErrClosed
	default:
	}
	for i := range dgs {
		if dgs[i].Source == "" {
			dgs[i].Source = p.addr
		}
	}
	n := p.net
	n.mu.Lock()
	for i := range dgs {
		n.injectLocked(dgs[i])
	}
	n.mu.Unlock()
	return len(dgs), nil
}

// ReceiveBatch blocks for the first datagram, then drains whatever else
// is already queued, up to len(buf).
func (p *netPort) ReceiveBatch(buf []Datagram) (int, error) {
	if len(buf) == 0 {
		return 0, nil
	}
	dg, err := p.Receive()
	if err != nil {
		return 0, err
	}
	buf[0] = dg
	n := 1
	for n < len(buf) {
		select {
		case dg := <-p.ch:
			buf[n] = dg
			n++
		default:
			return n, nil
		}
	}
	return n, nil
}
