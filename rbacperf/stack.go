package main

import (
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"sync/atomic"
	"time"

	"adminrefine/internal/admission"
	"adminrefine/internal/engine"
	"adminrefine/internal/placement"
	"adminrefine/internal/policy"
	"adminrefine/internal/replication"
	"adminrefine/internal/server"
	"adminrefine/internal/storage"
	"adminrefine/internal/tenant"
	"adminrefine/internal/wire"
)

// fileStats counts what the storage layer asks of its WAL files. It is fed
// by a pass-through tenant.Options.OpenFile wrapper that keeps every real
// write and fsync, so durability is unchanged and the counts are exact.
type fileStats struct {
	writes      atomic.Int64
	bytes       atomic.Int64
	syncs       atomic.Int64
	compactions atomic.Int64

	mu        sync.Mutex
	syncTimes samples // fsync latency, ns
}

func newFileStats() *fileStats { return &fileStats{} }

// fileCounts is a point-in-time copy of the counters.
type fileCounts struct{ writes, bytes, syncs, compactions int64 }

func (s *fileStats) counts() fileCounts {
	return fileCounts{s.writes.Load(), s.bytes.Load(), s.syncs.Load(), s.compactions.Load()}
}

// takeSyncTimes returns the fsync latencies recorded since the last call.
func (s *fileStats) takeSyncTimes() samples {
	s.mu.Lock()
	defer s.mu.Unlock()
	t := s.syncTimes
	s.syncTimes = nil
	return t
}

func (s *fileStats) openFile(path string, flag int, perm os.FileMode) (storage.File, error) {
	f, err := os.OpenFile(path, flag, perm)
	if err != nil {
		return nil, err
	}
	return &countedFile{File: f, st: s}, nil
}

// countedFile wraps one WAL file. Compaction truncates the log back to its
// header, which is how compactions are counted.
type countedFile struct {
	*os.File
	st *fileStats
}

// walHeaderMax bounds the WAL header length; a truncate to at most this
// many bytes is a compaction (a torn-tail repair truncates to a frame end).
const walHeaderMax = 16

func (f *countedFile) Write(p []byte) (int, error) {
	n, err := f.File.Write(p)
	f.st.writes.Add(1)
	f.st.bytes.Add(int64(n))
	return n, err
}

func (f *countedFile) Sync() error {
	start := time.Now()
	err := f.File.Sync()
	d := time.Since(start)
	f.st.syncs.Add(1)
	f.st.mu.Lock()
	f.st.syncTimes = append(f.st.syncTimes, int64(d))
	f.st.mu.Unlock()
	return err
}

func (f *countedFile) Truncate(size int64) error {
	if size <= walHeaderMax {
		f.st.compactions.Add(1)
	}
	return f.File.Truncate(size)
}

// node is one in-process rbacd: a tenant registry behind the HTTP facade and
// the binary wire plane, each on its own loopback listener.
type node struct {
	dir      string
	reg      *tenant.Registry
	srv      *server.Server
	adm      *admission.Controller
	files    *fileStats
	follower *replication.Follower
	httpURL  string
	wireAddr string

	hsrv *http.Server
	wsrv *wire.Server
	wg   sync.WaitGroup
}

// nodeOptions shapes one node.
type nodeOptions struct {
	id        string
	dir       string
	bootstrap func(string) *policy.Policy
	sync      bool
	upstream  string           // follower of this primary URL when set
	placement *placement.Table // cluster mode when set
}

func startNode(o nodeOptions) (*node, error) {
	n := &node{dir: o.dir, files: newFileStats(), adm: admission.New(admission.Config{})}
	if err := os.MkdirAll(o.dir, 0o755); err != nil {
		return nil, err
	}
	n.reg = tenant.New(tenant.Options{
		Dir:       o.dir,
		Mode:      engine.Refined,
		Sync:      o.sync,
		Bootstrap: o.bootstrap,
		OpenFile:  n.files.openFile,
	})
	cfg := server.Config{
		Registry:  n.reg,
		Admission: n.adm,
		Placement: o.placement,
		NodeID:    o.id,
	}
	if o.upstream != "" {
		n.follower = replication.NewFollower(n.reg, replication.FollowerOptions{
			Upstream: o.upstream,
			PollWait: 10 * time.Second,
			Backoff:  20 * time.Millisecond,
		})
		cfg.Follower = n.follower
	}
	n.srv = server.NewWithConfig(cfg)
	hln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		n.close()
		return nil, err
	}
	wln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		hln.Close()
		n.close()
		return nil, err
	}
	n.httpURL = "http://" + hln.Addr().String()
	n.wireAddr = wln.Addr().String()
	n.hsrv = &http.Server{Handler: n.srv}
	n.wsrv = wire.NewServer(n.srv.WireConfig())
	n.wg.Add(2)
	go func() { defer n.wg.Done(); n.hsrv.Serve(hln) }()
	go func() { defer n.wg.Done(); n.wsrv.Serve(wln) }()
	return n, nil
}

// close stops both listeners, waits for their accept loops, and closes the
// registry (which compacts every resident tenant). The follower, when
// present, is owned and closed by the server.
func (n *node) close() {
	if n.wsrv != nil {
		n.wsrv.Close()
	}
	if n.hsrv != nil {
		n.hsrv.Close()
	}
	if n.srv != nil {
		n.srv.Close()
	}
	n.wg.Wait()
	n.reg.Close()
}

// stack is the system under load for one workload run.
type stack struct {
	nodes []*node
	// read serves the workload's reads, write its submits; stray is the
	// non-owner the routed workload also sends wire traffic to.
	read, write, stray *node
	pmap               *placement.Map

	readWire, writeWire, strayWire *wire.Client
	httpc                          *http.Client
}

func (s *stack) close() {
	for _, c := range []*wire.Client{s.readWire, s.writeWire, s.strayWire} {
		if c != nil {
			c.Close() // closing a shared client twice is harmless
		}
	}
	if s.httpc != nil {
		s.httpc.CloseIdleConnections()
	}
	// Followers first: their pull loops hold long-polls on the primary.
	for i := len(s.nodes) - 1; i >= 0; i-- {
		s.nodes[i].close()
	}
}

// connsPerNode is the connection budget per node and plane: one per CPU.
func connsPerNode() int { return runtime.NumCPU() }

// dialWire opens the read and write wire clients for a node within the
// per-node connection budget: submits get their own connection (a pipelined
// connection answers in order, so an fsync-bound submit would otherwise
// block the reads queued behind it) whenever the budget allows two.
func dialWire(read, write *node) (r, w *wire.Client, err error) {
	budget := connsPerNode()
	readConns := budget
	if read == write && budget > 1 {
		readConns = budget - 1
	}
	opts := wire.ClientOptions{Conns: readConns}
	if r, err = wire.Dial(read.wireAddr, opts); err != nil {
		return nil, nil, err
	}
	if read == write && budget == 1 {
		return r, r, nil
	}
	wconns := 1
	if read != write {
		wconns = budget
	}
	if w, err = wire.Dial(write.wireAddr, wire.ClientOptions{Conns: wconns}); err != nil {
		r.Close()
		return nil, nil, err
	}
	return r, w, nil
}

// preopen touches every tenant so first-touch recovery and bootstrap stay
// out of the measured window.
func preopen(reg *tenant.Registry, names []string) error {
	for _, name := range names {
		if _, err := reg.Stats(name); err != nil {
			return fmt.Errorf("open tenant %s: %w", name, err)
		}
	}
	return nil
}

// singlePrimary stands up one durable primary serving every tenant.
func singlePrimary(dir string, fx *fixtureSet) (*stack, error) { return primary(dir, fx, false) }

// sharedPrimary is singlePrimary with reads spread over every connection of
// the budget and submits sharing them: for a mix whose reads each cost
// hundreds of microseconds of engine work, one read connection (one server
// goroutine) would cap the stack at one CPU, and its few submits hold up
// little behind an fsync.
func sharedPrimary(dir string, fx *fixtureSet) (*stack, error) { return primary(dir, fx, true) }

func primary(dir string, fx *fixtureSet, shared bool) (*stack, error) {
	p, err := startNode(nodeOptions{id: "n1", dir: filepath.Join(dir, "n1"), bootstrap: fx.bootstrap, sync: true})
	if err != nil {
		return nil, err
	}
	s := &stack{nodes: []*node{p}, read: p, write: p}
	if err := preopen(p.reg, fx.names()); err != nil {
		s.close()
		return nil, err
	}
	if shared {
		s.readWire, err = wire.Dial(p.wireAddr, wire.ClientOptions{Conns: connsPerNode()})
		s.writeWire = s.readWire
	} else {
		s.readWire, s.writeWire, err = dialWire(p, p)
	}
	if err != nil {
		s.close()
		return nil, err
	}
	return s, nil
}

// primaryFollower stands up a durable primary plus a WAL-streaming follower
// that has caught up on every tenant; reads go to the follower.
func primaryFollower(dir string, fx *fixtureSet) (*stack, error) {
	p, err := startNode(nodeOptions{id: "n1", dir: filepath.Join(dir, "primary"), bootstrap: fx.bootstrap, sync: true})
	if err != nil {
		return nil, err
	}
	s := &stack{nodes: []*node{p}, write: p}
	fail := func(err error) (*stack, error) { s.close(); return nil, err }
	if err := preopen(p.reg, fx.names()); err != nil {
		return fail(err)
	}
	f, err := startNode(nodeOptions{id: "n1", dir: filepath.Join(dir, "follower"), upstream: p.httpURL})
	if err != nil {
		return fail(err)
	}
	s.nodes = append(s.nodes, f)
	s.read = f
	for _, name := range fx.names() {
		if err := f.follower.Ensure(name); err != nil {
			return fail(err)
		}
		st, err := p.reg.Stats(name)
		if err != nil {
			return fail(err)
		}
		if _, ok, err := f.reg.WaitGeneration(name, st.Generation, 30*time.Second); err != nil || !ok {
			return fail(fmt.Errorf("follower did not catch up on %s (err %v)", name, err))
		}
	}
	if s.readWire, s.writeWire, err = dialWire(f, p); err != nil {
		return fail(err)
	}
	return s, nil
}

// routedPair stands up two cluster-mode primaries with every tenant pinned
// to n2. The HTTP serve mix is aimed at n1, which owns nothing.
func routedPair(dir string, fx *fixtureSet) (*stack, error) {
	ownerTable := placement.NewTable(nil, nil)
	frontTable := placement.NewTable(nil, nil)
	owner, err := startNode(nodeOptions{id: "n2", dir: filepath.Join(dir, "n2"), bootstrap: fx.bootstrap, sync: true, placement: ownerTable})
	if err != nil {
		return nil, err
	}
	s := &stack{nodes: []*node{owner}, read: owner, write: owner}
	fail := func(err error) (*stack, error) { s.close(); return nil, err }
	front, err := startNode(nodeOptions{id: "n1", dir: filepath.Join(dir, "n1"), sync: true, placement: frontTable})
	if err != nil {
		return fail(err)
	}
	s.nodes = append(s.nodes, front)
	s.stray = front
	m, err := placement.New(1, []placement.Node{{ID: "n1", Addr: front.httpURL}, {ID: "n2", Addr: owner.httpURL}})
	if err != nil {
		return fail(err)
	}
	m.Overrides = make(map[string]string)
	for _, name := range fx.names() {
		m.Overrides[name] = "n2"
	}
	for _, tbl := range []*placement.Table{frontTable, ownerTable} {
		if _, err := tbl.Install(m); err != nil {
			return fail(err)
		}
	}
	s.pmap = m
	if err := preopen(owner.reg, fx.names()); err != nil {
		return fail(err)
	}
	budget := connsPerNode()
	s.httpc = &http.Client{
		Timeout:   30 * time.Second,
		Transport: &http.Transport{MaxConnsPerHost: budget, MaxIdleConnsPerHost: budget},
	}
	if s.readWire, s.writeWire, err = dialWire(owner, owner); err != nil {
		return fail(err)
	}
	if s.strayWire, err = wire.Dial(front.wireAddr, wire.ClientOptions{Conns: 1}); err != nil {
		return fail(err)
	}
	return s, nil
}
