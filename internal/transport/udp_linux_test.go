package transport

import (
	"net"
	"os"
	"strconv"
	"strings"
	"syscall"
	"testing"
)

// rcvbuf reads SO_RCVBUF back from a socket.
func rcvbuf(t *testing.T, c *net.UDPConn) int {
	t.Helper()
	rc, err := c.SyscallConn()
	if err != nil {
		t.Fatal(err)
	}
	var size int
	var serr error
	if err := rc.Control(func(fd uintptr) {
		size, serr = syscall.GetsockoptInt(int(fd), syscall.SOL_SOCKET, syscall.SO_RCVBUF)
	}); err != nil {
		t.Fatal(err)
	}
	if serr != nil {
		t.Fatal(serr)
	}
	return size
}

// TestUDPTransportAsksForReceiveBuffer: a transport's socket never has
// less receive buffer than a socket nobody sized, and has more wherever
// net.core.rmem_max lets the request through.
func TestUDPTransportAsksForReceiveBuffer(t *testing.T) {
	plain, err := net.ListenUDP("udp", &net.UDPAddr{IP: net.IPv4(127, 0, 0, 1)})
	if err != nil {
		t.Skipf("UDP unavailable: %v", err)
	}
	defer plain.Close()
	u, err := NewUDPTransport("rcvbuf", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer u.Close()

	def, got := rcvbuf(t, plain), rcvbuf(t, u.conn)
	if got < def {
		t.Fatalf("transport SO_RCVBUF = %d, below the %d of an unsized socket", got, def)
	}
	raw, err := os.ReadFile("/proc/sys/net/core/rmem_max")
	if err != nil {
		t.Skipf("SO_RCVBUF %d vs default %d; rmem_max unreadable: %v", got, def, err)
	}
	rmemMax, err := strconv.Atoi(strings.TrimSpace(string(raw)))
	if err != nil {
		t.Fatal(err)
	}
	// An unsized socket reads rmem_default; a sized one reads twice what
	// it was granted, 2 × min(request, rmem_max).
	if 2*rmemMax > def && got <= def {
		t.Fatalf("transport SO_RCVBUF = %d, no larger than the default %d though rmem_max is %d", got, def, rmemMax)
	}
	t.Logf("SO_RCVBUF: transport %d, unsized socket %d, rmem_max %d", got, def, rmemMax)
}
