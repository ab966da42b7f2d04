package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"github.com/sljmotion/sljmotion/internal/core"
	"github.com/sljmotion/sljmotion/internal/dispatch"
	"github.com/sljmotion/sljmotion/internal/journal"
	"github.com/sljmotion/sljmotion/internal/server"
)

// node is one in-process service instance listening on loopback.
type node struct {
	url  string
	srv  *server.Server
	http *http.Server
	done chan struct{}
}

// serve serves srv on the loopback listener ln.
func serve(srv *server.Server, ln net.Listener) *node {
	n := &node{
		url:  "http://" + ln.Addr().String(),
		srv:  srv,
		http: &http.Server{Handler: srv.Handler(), ReadHeaderTimeout: 10 * time.Second},
		done: make(chan struct{}),
	}
	go func() {
		defer close(n.done)
		_ = n.http.Serve(ln) // returns http.ErrServerClosed on Shutdown
	}()
	return n
}

// stop closes the listener, waits for in-flight requests, then drains and
// closes the service.
func (n *node) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := n.http.Shutdown(ctx)
	<-n.done
	return errors.Join(err, n.srv.Close(ctx))
}

// deployment is the service a workload's clients talk to.
type deployment struct {
	url string
	// workers are the nodes that execute jobs and own the result caches:
	// the one node of a single-node deployment, or the fleet's two workers
	// behind front.
	workers []*node
	front   *node
	disp    *dispatch.Remote
	repls   []*dispatch.Replicator
	jrn     *journal.Journal
	dir     string // journal or spill directory, removed on close
}

// deployConfig says what to build.
type deployConfig struct {
	w workload
	// rec, when set, traces the service-internal layers: the journal
	// decorator and the dispatcher's and replicators' HTTP clients.
	rec *recorder
	// dir is a fresh directory for the journal or the artifact spill.
	dir string
	// single runs an ingest workload on one node instead of the fleet (the
	// ladder's HTTP rung).
	single bool
}

// analyzerConfig is the analyzer configuration of every node: the paper-faithful
// default (Parallelism 1, default GA profile).
func analyzerConfig() core.Config { return core.DefaultConfig() }

// fleetArtifactBytes bounds each fleet node's in-memory artifact tier; the
// spill directory takes what LRU pressure evicts. Without the bound, three
// copies of every uploaded clip (front, owner, replica) would stay resident
// for the artifact TTL.
const fleetArtifactBytes = 64 << 20

// ingestClipTTL is the clip-session lifetime of the nodes that take
// uploads (slj-serve -clip-ttl). A sealed session keeps its slot in the
// 64-session table until it expires, so under the default 15-minute TTL
// the 65th upload within 15 minutes is refused with 503; at the ~4
// uploads/s of ingest_fleet the table must turn over in well under 16 s.
const ingestClipTTL = 5 * time.Second

// deploy builds the workload's service. It does not warm it up.
func deploy(dc deployConfig) (*deployment, error) {
	d := &deployment{dir: dc.dir}
	var err error
	switch {
	case dc.w.fleet && !dc.single:
		err = d.startFleet(dc)
	case dc.w.journal:
		err = d.startJournaled(dc)
	default:
		opts := server.DefaultOptions()
		if dc.w.fleet {
			opts.ClipTTL = ingestClipTTL
		}
		var n *node
		n, err = newNode(opts)
		if err == nil {
			d.workers, d.url = []*node{n}, n.url
		}
	}
	if err != nil {
		_ = d.close()
		return nil, err
	}
	return d, nil
}

// newNode builds a service and serves it on a fresh loopback port.
func newNode(opts server.Options) (*node, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	srv, err := server.NewWithOptions(analyzerConfig(), nil, opts)
	if err != nil {
		ln.Close()
		return nil, err
	}
	return serve(srv, ln), nil
}

// startJournaled opens the production-policy journal in the run's fresh
// directory and serves a single node over it.
func (d *deployment) startJournaled(dc deployConfig) error {
	j, err := journal.Open(filepath.Join(dc.dir, "jobs.journal"), journal.DefaultConfig())
	if err != nil {
		return err
	}
	d.jrn = j
	opts := server.DefaultOptions()
	opts.Journal = j
	if dc.rec != nil {
		opts.Journal = timedJournal{inner: j, rec: dc.rec}
	}
	n, err := newNode(opts)
	if err != nil {
		return err
	}
	d.workers, d.url = []*node{n}, n.url
	return nil
}

// restart closes the journaled node and its journal, then reopens both:
// the new node replays the journal of the jobs that ran so far.
func (d *deployment) restart(dc deployConfig) error {
	if err := d.workers[0].stop(); err != nil {
		return err
	}
	d.workers = nil
	if err := d.jrn.Close(); err != nil {
		return err
	}
	d.jrn = nil
	return d.startJournaled(dc)
}

// startFleet boots two worker nodes with successor replication and a
// dispatch front end, then joins both workers through the front end's
// probe-gated membership route.
func (d *deployment) startFleet(dc deployConfig) error {
	for i := 0; i < 2; i++ {
		repl := dispatch.NewReplicator(serviceClient(dc.rec, "replica."))
		d.repls = append(d.repls, repl)
		opts := server.DefaultOptions()
		opts.Worker = true
		opts.Replicator = repl
		opts.ArtifactBytes = fleetArtifactBytes
		opts.ArtifactSpillDir = filepath.Join(dc.dir, fmt.Sprintf("worker%d.spill", i))
		n, err := newNode(opts)
		if err != nil {
			return err
		}
		d.workers = append(d.workers, n)
	}

	// The front end's public URL is stamped into by-reference payloads, so
	// its listener must exist before the dispatcher is built.
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return err
	}
	frontURL := "http://" + ln.Addr().String()
	dcfg := dispatch.DefaultConfig()
	dcfg.Client = serviceClient(dc.rec, "dispatch.")
	dcfg.Replicate = true
	dcfg.ArtifactOrigin = frontURL
	disp, err := dispatch.New(dcfg)
	if err != nil {
		ln.Close()
		return err
	}
	opts := server.DefaultOptions()
	opts.Dispatcher = disp
	opts.ArtifactBytes = fleetArtifactBytes
	opts.ArtifactSpillDir = filepath.Join(dc.dir, "front.spill")
	opts.ClipTTL = ingestClipTTL
	srv, err := server.NewWithOptions(analyzerConfig(), nil, opts)
	if err != nil {
		ln.Close()
		_ = disp.Close(context.Background())
		return err
	}
	d.disp = disp
	d.front = serve(srv, ln)
	d.url = frontURL
	for _, w := range d.workers {
		if err := joinFleet(frontURL, w.url); err != nil {
			return err
		}
	}
	return nil
}

// joinFleet admits one worker through POST /v1/fleet/nodes.
func joinFleet(front, worker string) error {
	body := []byte(fmt.Sprintf(`{"url":%q,"weight":1}`, worker))
	resp, err := http.Post(front+"/v1/fleet/nodes", "application/json", bytes.NewReader(body))
	if err != nil {
		return fmt.Errorf("join %s: %w", worker, err)
	}
	raw, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("join %s: status %d: %s", worker, resp.StatusCode, raw)
	}
	return nil
}

// close stops every component, front end first, and removes the run's
// directory.
func (d *deployment) close() error {
	var errs []error
	if d.front != nil {
		errs = append(errs, d.front.stop())
	}
	for _, w := range d.workers {
		errs = append(errs, w.stop())
	}
	for _, r := range d.repls {
		r.Close()
	}
	if d.jrn != nil {
		errs = append(errs, d.jrn.Close())
	}
	if d.dir != "" {
		errs = append(errs, os.RemoveAll(d.dir))
	}
	return errors.Join(errs...)
}
