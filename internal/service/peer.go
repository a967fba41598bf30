package service

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"net/url"
	"strconv"
	"time"

	"jobench/internal/router"
	"jobench/internal/trace"
)

// peerSet is the replica-topology view a server holds when it runs behind
// the consistent-hash router: the same ring the router hashes with, this
// replica's own identity on it, and a client for asking peers.
//
// The protocol is deliberately read-only: on a local report-cache miss the
// server asks the ring OWNER of the report's (seed, scale) whether it
// already rendered that report (GET /v1/report-cache/{name}), and only
// computes locally when the owner has nothing. Owners never compute on a
// peek — so a fill can never cascade — and a dead or slow peer degrades to
// a local computation after peerTimeout, never to a failed request.
type peerSet struct {
	ring    *router.Ring
	self    string
	client  *http.Client
	timeout time.Duration
}

// newPeerSet wires the peer topology from cfg; returns nil (peer-fill
// disabled) unless both Peers and SelfURL are configured. Affinity only
// works when every replica and the router are started with the identical
// replica list, which is what `make bench-service` and the OPERATIONS doc
// prescribe.
func newPeerSet(cfg Config) *peerSet {
	if len(cfg.Peers) == 0 || cfg.SelfURL == "" {
		return nil
	}
	timeout := cfg.PeerTimeout
	if timeout <= 0 {
		timeout = 10 * time.Second
	}
	return &peerSet{
		ring:    router.NewRingFromConfig(cfg.Peers),
		self:    canonicalURL(cfg.SelfURL),
		client:  &http.Client{},
		timeout: timeout,
	}
}

func canonicalURL(u string) string {
	for len(u) > 0 && u[len(u)-1] == '/' {
		u = u[:len(u)-1]
	}
	return u
}

// owner returns the ring owner for a report's world, or "" when the owner
// is this replica itself (nothing to ask).
func (p *peerSet) owner(k reportKey) string {
	o := p.ring.Owner(router.AffinityKey(k.key.World.Workload, k.key.World.Seed, k.key.World.Scale))
	if o == p.self {
		return ""
	}
	return o
}

// peerFill asks the owning replica for an already-rendered report. ok is
// true only on a 200 with a body; every other outcome (no peers, we are
// the owner, owner cold, owner down) falls through to local computation.
//
// reqCtx is observability-only: the peek itself runs under the server
// lifetime context (flight waiters share the result), but it carries the
// initiating request's trace ID in X-Jobench-Trace — so the owner's
// /v1/traces shows the peek under the same trace the router started —
// and records a "peer.fill" span on that trace.
func (s *Server) peerFill(reqCtx context.Context, k reportKey) (text string, ok bool) {
	p := s.peers
	if p == nil {
		return "", false
	}
	owner := p.owner(k)
	if owner == "" {
		return "", false
	}
	sp := trace.StartSpan(reqCtx, "peer.fill")
	defer func() { sp.End(trace.String("owner", owner), trace.Bool("hit", ok)) }()
	ctx, cancel := context.WithTimeout(s.serverCtx(), p.timeout)
	defer cancel()
	u := fmt.Sprintf("%s/v1/report-cache/%s?workload=%s&seed=%d&scale=%s&samples=%d",
		owner, url.PathEscape(k.name), url.QueryEscape(k.key.World.Workload), k.key.World.Seed,
		strconv.FormatFloat(k.key.World.Scale, 'g', -1, 64), k.samples)
	req, err := http.NewRequestWithContext(ctx, http.MethodGet, u, nil)
	if err != nil {
		s.metrics.PeerFillMisses.Add(1)
		return "", false
	}
	if id := trace.IDFromContext(reqCtx); id != 0 {
		req.Header.Set(trace.Header, id.String())
	}
	resp, err := p.client.Do(req)
	if err != nil {
		s.metrics.PeerFillMisses.Add(1)
		s.cfg.logger().Warn("peer-fill failed, computing locally",
			"owner", owner, "err", err, "trace_id", trace.IDFromContext(reqCtx).String())
		return "", false
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		// The owner is alive but cold for this report: a miss, not an error.
		io.Copy(io.Discard, resp.Body)
		s.metrics.PeerFillMisses.Add(1)
		return "", false
	}
	body, err := io.ReadAll(resp.Body)
	if err != nil || len(body) == 0 {
		s.metrics.PeerFillMisses.Add(1)
		return "", false
	}
	s.metrics.PeerFillHits.Add(1)
	return string(body), true
}

// handleReportPeek is the peer-fill endpoint: return the locally cached
// rendering of one report, or 404 without computing anything — a peek must
// stay cheap no matter how cold this replica is, or fills would cascade.
func (s *Server) handleReportPeek(w http.ResponseWriter, r *http.Request) (int, error) {
	name := r.PathValue("name")
	wl, seed, scale, err := queryWorld(r)
	if err != nil {
		return http.StatusBadRequest, err
	}
	samples := 0
	if v := r.URL.Query().Get("samples"); v != "" {
		samples, err = strconv.Atoi(v)
		if err != nil || samples < 0 {
			return http.StatusBadRequest, fmt.Errorf("invalid samples %q", v)
		}
	}
	k := reportKey{key: s.key(wl, seed, scale), name: name, samples: normalizeSamples(name, samples)}
	text, ok := s.reports.Get(k)
	if !ok {
		return http.StatusNotFound, fmt.Errorf("report %q not cached here", name)
	}
	w.Header().Set("Content-Type", "text/plain; charset=utf-8")
	_, _ = w.Write([]byte(text))
	return http.StatusOK, nil
}
