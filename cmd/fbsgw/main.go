// Command fbsgw is the deployable FBS gateway daemon: a long-running
// multi-tenant datagram-security gateway over real UDP sockets, driven
// by a declarative JSON config (see examples/fbsgw/gateway.json) and
// reconfigurable with zero downtime three ways:
//
//   - SIGHUP re-reads the config file and atomically swaps to it;
//   - the admin API mirrors Caddy's: GET /config returns the live
//     config, POST /config swaps a full replacement, PATCH /config
//     applies a targeted mutation (accept-set, state budget, admission
//     quota, or a flush_peer key rotation);
//   - embedders call gateway.Gateway.Swap directly.
//
// A swap never drops an in-flight flow: the new config epoch is fully
// built and warmed from the old epoch's keying caches before one
// atomic pointer store redirects traffic, and the old epoch finishes
// what it already admitted before retiring. SIGTERM/SIGINT drain the
// gateway gracefully — intake stops, in-flight datagrams finish, and
// the final cumulative stats (which reconcile exactly: received ==
// accepted + drops + no_tenant + absorbed) print as JSON.
//
// Because zero-message keying needs both sides' public values, the
// daemon plays the Domain the way fbsudp's sender does: it mints
// tenant identities, pre-provisions the client identities named with
// -clients, and writes certificates, the CA key, client private
// values, and the bound listener addresses to the -state file, which
// clients load with fbs.LoadProvision to build their endpoints.
// (Production would use a real certificate service; see internal/cert.)
//
// Usage:
//
//	fbsgw -config gateway.json -state /tmp/fbsgw.state -clients alice,bob
//	fbsgw -config gateway.json -check   # validate and exit
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/signal"
	"strings"
	"sync"
	"syscall"
	"time"

	"fbs/internal/gateway"
	"fbs/internal/obs"
	"fbs/internal/principal"
	"fbs/internal/transport"

	fbs "fbs"
)

func main() {
	configPath := flag.String("config", "", "gateway config file (JSON)")
	statePath := flag.String("state", "", "provisioning state file to write (certs, CA key, client keys, bound addresses)")
	clients := flag.String("clients", "", "comma-separated client principal names to pre-provision into -state")
	check := flag.Bool("check", false, "validate the config and exit")
	flag.Parse()

	if *configPath == "" {
		fmt.Fprintln(os.Stderr, "fbsgw: -config is required")
		os.Exit(2)
	}
	if *check {
		cfg, err := loadConfig(*configPath)
		if err != nil {
			fmt.Fprintln(os.Stderr, "fbsgw:", err)
			os.Exit(1)
		}
		fmt.Printf("config ok: %d tenant(s)\n", len(cfg.Tenants))
		return
	}
	d := newDaemon(cliOptions{
		configPath: *configPath,
		statePath:  *statePath,
		clients:    *clients,
	}, os.Stdout, func(format string, args ...any) {
		fmt.Fprintf(os.Stderr, "fbsgw: "+format+"\n", args...)
	})
	if err := d.run(); err != nil {
		fmt.Fprintln(os.Stderr, "fbsgw:", err)
		os.Exit(1)
	}
}

func loadConfig(path string) (*gateway.Config, error) {
	blob, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	return gateway.Parse(blob)
}

type cliOptions struct {
	configPath string
	statePath  string
	clients    string
}

// provisionState is the side-channel clients load to join the
// gateway's security domain: the domain's fbs.Provision (certificates
// for every principal, the CA verification key, the clients' private
// values) plus where each tenant's listener actually bound (so port-0
// configs work).
type provisionState struct {
	*fbs.Provision
	TenantUDP map[string]string `json:"tenant_udp"`
	AdminAddr string            `json:"admin_addr,omitempty"`
}

type daemon struct {
	opts cliOptions
	out  io.Writer
	logf func(format string, args ...any)

	dom *fbs.Domain
	gw  *gateway.Gateway

	mu    sync.Mutex
	ids   map[principal.Address]*principal.Identity
	bound map[principal.Address]string // tenant → bound UDP addr

	adminAddr string
	adminStop func() error
	sig       chan os.Signal
}

func newDaemon(opts cliOptions, out io.Writer, logf func(string, ...any)) *daemon {
	if logf == nil {
		logf = func(string, ...any) {}
	}
	return &daemon{
		opts:  opts,
		out:   out,
		logf:  logf,
		ids:   make(map[principal.Address]*principal.Identity),
		bound: make(map[principal.Address]string),
		sig:   make(chan os.Signal, 2),
	}
}

// identity memoises tenant identities so a config swap keeps each
// tenant's keys — which is what lets the warm handoff carry master
// keys across and spare established peers any re-keying.
func (d *daemon) identity(tc gateway.TenantConfig) (*principal.Identity, error) {
	d.mu.Lock()
	defer d.mu.Unlock()
	addr := principal.Address(tc.Address)
	if id, ok := d.ids[addr]; ok {
		return id, nil
	}
	id, err := d.dom.NewPrincipal(addr)
	if err != nil {
		return nil, err
	}
	d.ids[addr] = id
	return id, nil
}

// listen binds a learning UDP socket for a tenant. Learning gives the
// reply route: a gateway cannot enumerate its clients in advance, so
// it answers to each client's observed UDP source.
func (d *daemon) listen(tc gateway.TenantConfig) (transport.Transport, error) {
	spec := tc.Listen
	if spec == "" {
		spec = "127.0.0.1:0"
	}
	udp, err := transport.NewUDPTransport(principal.Address(tc.Address), spec)
	if err != nil {
		return nil, err
	}
	udp.SetLearnPeers(true)
	d.mu.Lock()
	d.bound[principal.Address(tc.Address)] = udp.LocalAddr().String()
	d.mu.Unlock()
	return udp, nil
}

func (d *daemon) run() error {
	cfg, err := loadConfig(d.opts.configPath)
	if err != nil {
		return err
	}
	// Install the handlers before anything observable happens, so a
	// supervisor's early SIGTERM still drains instead of killing.
	signal.Notify(d.sig, syscall.SIGHUP, syscall.SIGINT, syscall.SIGTERM)
	defer signal.Stop(d.sig)

	d.dom, err = fbs.NewDomain("fbsgw")
	if err != nil {
		return err
	}
	d.gw, err = gateway.New(gateway.Options{
		Identity:  d.identity,
		Listen:    d.listen,
		Directory: d.dom.Directory(),
		Verifier:  d.dom.Verifier(),
		Logf:      d.logf,
	})
	if err != nil {
		return err
	}
	if err := d.gw.Start(cfg); err != nil {
		return err
	}

	if cfg.AdminAddr != "" {
		admin := obs.NewAdmin(nil)
		d.gw.RegisterMetrics(admin.Registry)
		admin.Handle("/config", d.gw.ConfigHandler())
		bound, stop, err := admin.Serve(cfg.AdminAddr)
		if err != nil {
			d.gw.Shutdown(time.Second) //nolint:errcheck // already failing
			return fmt.Errorf("admin plane: %w", err)
		}
		d.adminAddr, d.adminStop = bound.String(), stop
		d.logf("admin plane at http://%s/ (config at /config)", bound)
	}

	if err := d.writeState(cfg); err != nil {
		return err
	}
	d.logf("serving %d tenant(s) at epoch %d", len(cfg.Tenants), d.gw.Epoch())

	for s := range d.sig {
		switch s {
		case syscall.SIGHUP:
			next, err := loadConfig(d.opts.configPath)
			if err != nil {
				d.logf("reload: %v (keeping epoch %d)", err, d.gw.Epoch())
				continue
			}
			rep, err := d.gw.Swap(next)
			if err != nil {
				d.logf("reload: %v (keeping epoch %d)", err, d.gw.Epoch())
				continue
			}
			cfg = next
			if err := d.writeState(cfg); err != nil {
				d.logf("reload: rewriting state: %v", err)
			}
			d.logf("reloaded to epoch %d (%d certs, %d master keys handed off)",
				rep.Epoch, rep.Certs, rep.MasterKeys)
		case syscall.SIGINT, syscall.SIGTERM:
			timeout := 5 * time.Second
			if cfg.DrainTimeout > 0 {
				timeout = time.Duration(cfg.DrainTimeout)
			}
			st, err := d.gw.Shutdown(timeout)
			if err != nil {
				d.logf("drain: %v", err)
			}
			if d.adminStop != nil {
				if err := d.adminStop(); err != nil {
					d.logf("admin stop: %v", err)
				}
			}
			enc := json.NewEncoder(d.out)
			enc.SetIndent("", "  ")
			if err := enc.Encode(st); err != nil {
				return err
			}
			return nil
		}
	}
	return nil
}

// writeState serialises the provisioning side channel: the domain's
// export — which mints and enrolls each -clients name the first time, so
// the file carries everything a client process needs — and the bound
// listener addresses. Called after every successful swap so newly added
// tenants appear too.
func (d *daemon) writeState(cfg *gateway.Config) error {
	if d.opts.statePath == "" {
		return nil
	}
	var clients []principal.Address
	for _, name := range strings.Split(d.opts.clients, ",") {
		if name = strings.TrimSpace(name); name != "" {
			clients = append(clients, principal.Address(name))
		}
	}
	prov, err := d.dom.Provision(clients...)
	if err != nil {
		return fmt.Errorf("state: %w", err)
	}
	st := provisionState{
		Provision: prov,
		TenantUDP: make(map[string]string),
		AdminAddr: d.adminAddr,
	}
	d.mu.Lock()
	for _, tc := range cfg.Tenants {
		if bound, ok := d.bound[principal.Address(tc.Address)]; ok {
			st.TenantUDP[tc.Address] = bound
		}
	}
	d.mu.Unlock()
	return fbs.WriteProvision(d.opts.statePath, st)
}
