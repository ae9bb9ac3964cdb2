package netstream

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sort"
	"strings"
	"sync"
	"time"

	"icewafl/internal/obs"
	"icewafl/internal/stream"
)

// ErrUnknownSession reports a control-plane operation addressed at a
// session the service does not (or no longer does) run.
var ErrUnknownSession = errors.New("netstream: unknown session")

// ErrSessionExists reports a create for a tenant/name pair already
// running.
var ErrSessionExists = errors.New("netstream: session already exists")

// ErrServiceClosed reports an operation against a service that shut
// down.
var ErrServiceClosed = errors.New("netstream: service closed")

// SessionRequest is the control-plane body of POST /v1/sessions: which
// tenant, what to call the session, and an opaque pipeline spec the
// service compiles through its Build hook (the daemon's Build parses
// schema + pollution config + inline CSV input).
type SessionRequest struct {
	Tenant string          `json:"tenant"`
	Name   string          `json:"name"`
	Spec   json.RawMessage `json:"spec"`
}

// SessionStatus is the control-plane rendering of one session.
type SessionStatus struct {
	Tenant string `json:"tenant"`
	Name   string `json:"name"`
	// State is running, done, failed or quarantined.
	State    string   `json:"state"`
	DirtySeq uint64   `json:"dirty_seq"`
	CleanSeq uint64   `json:"clean_seq"`
	LogSeq   uint64   `json:"log_seq"`
	Subs     int64    `json:"subscribers"`
	Restarts uint64   `json:"restarts"`
	Error    string   `json:"error,omitempty"`
	Channels []string `json:"channels"`
	// Durable reports that the session persists its channels to a WAL
	// (checkpoints included, when its shape takes them).
	Durable bool `json:"durable,omitempty"`
	// Resumed reports that this incarnation was resurrected from a
	// persisted spec by Service.Recover rather than created over the
	// control plane.
	Resumed bool `json:"resumed,omitempty"`
	// Recovered counts frames regenerated into the suppressed durable
	// region since the session started (restart recovery progress).
	Recovered uint64 `json:"recovered_frames,omitempty"`
}

// ServiceConfig configures the multi-tenant session service.
type ServiceConfig struct {
	// Build compiles a session's opaque spec into a pipeline Config. Nil
	// = the control plane creates no sessions (a single-pipeline daemon
	// runs only the unnamed session; see Start).
	Build func(spec json.RawMessage) (Config, error)
	// Quotas are the per-tenant ceilings; tenants not listed fall back
	// to DefaultQuota.
	Quotas map[string]TenantQuota
	// DefaultQuota applies to tenants absent from Quotas (zero value =
	// unlimited).
	DefaultQuota TenantQuota
	// DrainTimeout is the default bounded-drain deadline applied to
	// sessions whose built Config leaves it zero.
	DrainTimeout time.Duration
	// Reg receives service metrics — one registry shared by every
	// session, with per-tenant counter families (nil-safe).
	Reg *obs.Registry
	// Logf, when set, receives service diagnostics.
	Logf func(format string, args ...any)
	// StateDir makes every session durable. A named session keeps its
	// Config.StateDir at <StateDir>/<tenant>/<session>, with its spec
	// persisted alongside so Recover can resurrect it after a restart, and
	// per-tenant WAL-byte budgets (TenantQuota.MaxWALBytes) are enforced
	// across the tenant's logs. The unnamed session (Start) keeps its
	// state at <StateDir> itself. Empty = memory-only sessions (the replay
	// ring).
	StateDir string
	// WAL sets the service-wide durable-log tuning defaults (segment
	// size, retention, fsync cadence); a session's built Config may
	// override field-wise. Only meaningful with StateDir.
	WAL WALOptions
	// ArchiveDeleted moves a deleted session's state directory under
	// <StateDir>/.deleted/<tenant>/<session> instead of removing it.
	ArchiveDeleted bool
}

// Session is one supervised pipeline run inside a Service: a Server
// whose channels are <tenant>/<name>/dirty|clean|log — or, for the
// unnamed session (empty tenant and name), the bare dirty|clean|log.
type Session struct {
	tenant string
	name   string
	srv    *Server

	// stateDir is the session's directory under the service's state dir
	// (empty for memory-only and unnamed sessions); resumed marks
	// incarnations resurrected by Service.Recover.
	stateDir string
	resumed  bool

	ctx     context.Context
	cancel  context.CancelFunc
	pipeRes <-chan error

	stopOnce sync.Once
	stopped  chan struct{}
	stopErr  error
}

// Tenant returns the owning tenant.
func (sess *Session) Tenant() string { return sess.tenant }

// Name returns the session name.
func (sess *Session) Name() string { return sess.name }

// ID returns the session's service-unique identifier, tenant/name ("" for
// the unnamed session). It is also the session's channel namespace.
func (sess *Session) ID() string { return sessionID(sess.tenant, sess.name) }

func sessionID(tenant, name string) string {
	if tenant == "" && name == "" {
		return ""
	}
	return tenant + "/" + name
}

// Server exposes the session's underlying server (tests and embedders).
func (sess *Session) Server() *Server { return sess.srv }

// stop cancels the pipeline and runs the bounded-drain path (the same
// one Serve uses on SIGTERM): subscribers get DrainTimeout to finish
// reading, then the hub closes — releasing any Publish wedged on a
// stuck block-policy subscriber — and remaining connections are
// force-closed. Idempotent; every caller observes the same result: the
// pipeline's own terminal error, nil when it completed or was merely
// stopped by this call.
func (sess *Session) stop() error {
	sess.stopOnce.Do(func() {
		sess.cancel()
		err := sess.srv.drainAndClose(sess.pipeRes)
		// A pipeline still running here ends with whichever of the
		// teardown's own signals it meets first — the cancelled context,
		// the stopped source, or the closed hub. All three mean "stopped
		// because we asked"; none can arise before this call.
		if errors.Is(err, context.Canceled) || errors.Is(err, stream.ErrStopped) || errors.Is(err, ErrHubClosed) {
			err = nil
		}
		sess.stopErr = err
		close(sess.stopped)
	})
	<-sess.stopped
	return sess.stopErr
}

// status snapshots the session for the control plane.
func (sess *Session) status() SessionStatus {
	srv := sess.srv
	st := SessionStatus{
		Tenant:   sess.tenant,
		Name:     sess.name,
		State:    "running",
		DirtySeq: srv.hub.Seq(srv.chDirty),
		CleanSeq: srv.hub.Seq(srv.chClean),
		LogSeq:   srv.hub.Seq(srv.chLog),
		Subs:     srv.hub.SubscriberCount(),
	}
	for _, cn := range srv.chans {
		st.Channels = append(st.Channels, cn.full)
	}
	st.Durable = srv.cfg.StateDir != ""
	st.Resumed = sess.resumed
	st.Recovered = srv.hub.Recovered()
	select {
	case <-srv.PipelineDone():
		if err := srv.PipelineErr(); err != nil {
			st.State, st.Error = "failed", err.Error()
		} else {
			st.State = "done"
		}
	default:
	}
	if sup := srv.Supervisor(); sup != nil {
		st.Restarts = sup.Restarts()
		if sup.Quarantined() {
			st.State = "quarantined"
		}
	}
	return st
}

// Service is the daemon's one front door. It owns the listeners and
// routes every subscriber to the session its channel names. A REST
// control plane creates and stops named, per-tenant sessions on demand,
// addressed through the <tenant>/<session>/<channel> namespace, with
// per-tenant quotas (max sessions, max subscribers, bytes/sec token
// bucket) on top of the per-subscriber backpressure policies. Start
// adds the unnamed session, addressed by bare channel names.
type Service struct {
	cfg  ServiceConfig
	reg  *obs.Registry
	logf func(format string, args ...any)

	mu       sync.Mutex
	sessions map[string]*Session
	tenants  map[string]*tenantState
	// deleting serializes durable delete → recreate: while a durable
	// session's state directory is being torn down, a create of the same
	// ID waits on its channel instead of racing the removal.
	deleting map[string]chan struct{}
	closed   bool
}

// NewService builds an empty session service.
func NewService(cfg ServiceConfig) (*Service, error) {
	if cfg.Logf == nil {
		cfg.Logf = func(string, ...any) {}
	}
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = 5 * time.Second
	}
	if cfg.StateDir != "" {
		if err := os.MkdirAll(cfg.StateDir, 0o755); err != nil {
			return nil, fmt.Errorf("netstream: state dir: %w", err)
		}
	}
	s := &Service{
		cfg:      cfg,
		reg:      cfg.Reg,
		logf:     cfg.Logf,
		sessions: make(map[string]*Session),
		tenants:  make(map[string]*tenantState),
		deleting: make(map[string]chan struct{}),
	}
	s.reg.RegisterFunc("net_sessions", func() uint64 {
		s.mu.Lock()
		defer s.mu.Unlock()
		return uint64(len(s.sessions))
	})
	s.reg.RegisterFunc("net_subscribers", func() uint64 {
		var n int64
		for _, sess := range s.snapshotSessions() {
			n += sess.srv.hub.SubscriberCount()
		}
		if n < 0 {
			return 0
		}
		return uint64(n)
	})
	s.reg.RegisterFunc("net_frames_sent_total", func() uint64 {
		var n uint64
		for _, sess := range s.snapshotSessions() {
			n += sess.srv.hub.FramesSent()
		}
		return n
	})
	return s, nil
}

// snapshotSessions copies the live session list.
func (s *Service) snapshotSessions() []*Session {
	s.mu.Lock()
	defer s.mu.Unlock()
	out := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		out = append(out, sess)
	}
	return out
}

// tenant returns (creating on first use) the tenant's accounting state.
func (s *Service) tenant(name string) *tenantState {
	s.mu.Lock()
	defer s.mu.Unlock()
	ts := s.tenants[name]
	if ts == nil {
		q, ok := s.cfg.Quotas[name]
		if !ok {
			q = s.cfg.DefaultQuota
		}
		ts = newTenantState(name, q)
		s.tenants[name] = ts
		if s.cfg.StateDir != "" {
			b := ts.walBudget
			s.reg.RegisterTenantWALBytes(name, func() uint64 {
				if u := b.Used(); u > 0 {
					return uint64(u)
				}
				return 0
			})
		}
	}
	return ts
}

// validName admits DNS-label-ish tenant and session names; the
// separator characters of the channel namespace are excluded by
// construction.
func validName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '-', r == '_', r == '.':
		default:
			return false
		}
	}
	return true
}

// Create builds, registers and starts a session. Quota violations
// return a typed *QuotaError (counted in the tenant's rejection
// family); duplicate names return ErrSessionExists. With a state dir
// the session is durable: its session log lives under
// <StateDir>/<tenant>/<name> and its spec is persisted for Recover.
func (s *Service) Create(req SessionRequest) (*Session, error) {
	return s.create(req, false)
}

// create is Create plus the resumed flag Recover uses: a resumed
// session reuses its existing state directory (spec already persisted)
// instead of provisioning a fresh one.
func (s *Service) create(req SessionRequest, resumed bool) (*Session, error) {
	if !validName(req.Tenant) || !validName(req.Name) {
		return nil, fmt.Errorf("netstream: tenant and session names must be non-empty [A-Za-z0-9._-], got %q/%q", req.Tenant, req.Name)
	}
	if s.cfg.Build == nil {
		return nil, errNoBuild
	}
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return nil, ErrServiceClosed
	}
	s.mu.Unlock()
	s.waitPendingDelete(sessionID(req.Tenant, req.Name))
	ts := s.tenant(req.Tenant)
	if err := ts.acquireSession(); err != nil {
		s.reg.AddTenantQuotaRejection(req.Tenant)
		return nil, err
	}
	durable := s.cfg.StateDir != ""
	if durable {
		if err := ts.checkWALBudget(); err != nil {
			ts.releaseSession()
			s.reg.AddTenantQuotaRejection(req.Tenant)
			return nil, err
		}
	}
	cfg, err := s.cfg.Build(req.Spec)
	if err != nil {
		ts.releaseSession()
		return nil, err
	}
	sess := &Session{tenant: req.Tenant, name: req.Name, resumed: resumed}
	if durable {
		sess.stateDir = filepath.Join(s.cfg.StateDir, req.Tenant, req.Name)
		s.wireDurable(&cfg, ts.walBudget, sess.stateDir)
		if !resumed {
			// An older build's state under the same name is refused before
			// the new spec could overwrite it.
			err := checkStateDir(sess.stateDir)
			if err == nil {
				err = writeSpecFile(cfg.WAL.FS, filepath.Join(sess.stateDir, "spec.json"), req)
			}
			if err != nil {
				ts.releaseSession()
				return nil, err
			}
		}
	}
	if err := s.start(sess, cfg); err != nil {
		ts.releaseSession()
		if durable && !resumed && sess.srv == nil {
			// A fresh durable create that never produced a server leaves no
			// state behind (the spec file was just written above).
			os.RemoveAll(sess.stateDir)
		}
		return nil, err
	}
	s.logf("session %s created (durable=%t resumed=%t)", sess.ID(), durable, resumed)
	return sess, nil
}

// errNoBuild rejects a control-plane create on a service without a
// Build hook.
var errNoBuild = errors.New("netstream: this service runs one fixed pipeline and creates no sessions")

// Start starts the unnamed session from an already-built cfg: the
// single-pipeline daemon's one run. Its channels keep the bare
// dirty|clean|log names, so a subscriber reaches it with a channel that
// has no '/' (an empty channel means dirty). It has no tenant, hence no
// quota, throttle or tenant-labelled metrics. With a service state dir it
// is durable at <StateDir> itself, wired as a named session is, but it
// has no spec file and Delete never removes or archives its state. A
// service hosts at most one: a second Start fails with ErrSessionExists
// before it builds a server, so the first keeps its fixed-name gauges.
func (s *Service) Start(cfg Config) (*Session, error) {
	if _, dup := s.Get("", ""); dup {
		return nil, fmt.Errorf("%w: the unnamed session", ErrSessionExists)
	}
	if s.cfg.StateDir != "" {
		s.wireDurable(&cfg, nil, s.cfg.StateDir)
	}
	sess := &Session{}
	if err := s.start(sess, cfg); err != nil {
		return nil, err
	}
	return sess, nil
}

// start builds sess's server from cfg, registers the session and
// launches its pipeline. On error sess.srv tells whether the server was
// built (its logs are closed again).
func (s *Service) start(sess *Session, cfg Config) error {
	if cfg.DrainTimeout <= 0 {
		cfg.DrainTimeout = s.cfg.DrainTimeout
	}
	srv, err := newServer(cfg, sess.ID(), s.reg, s.logf)
	if err != nil {
		return err
	}
	sess.srv = srv
	sess.ctx, sess.cancel = context.WithCancel(context.Background())
	sess.stopped = make(chan struct{})
	s.mu.Lock()
	if s.closed {
		err = ErrServiceClosed
	} else if _, dup := s.sessions[sess.ID()]; dup {
		err = fmt.Errorf("%w: %s", ErrSessionExists, sess.ID())
	} else {
		s.sessions[sess.ID()] = sess
	}
	s.mu.Unlock()
	if err != nil {
		sess.cancel()
		srv.closeLog()
		return err
	}
	sess.pipeRes = srv.startPipeline(sess.ctx)
	return nil
}

// wireDurable roots cfg's durable state at stateDir and attaches the
// tenant's byte budget (nil for the unnamed session). Service-wide WAL
// tuning applies as defaults beneath whatever the built config already
// set field-wise.
func (s *Service) wireDurable(cfg *Config, budget *WALBudget, stateDir string) {
	w := s.cfg.WAL
	if cfg.WAL.SegmentBytes > 0 {
		w.SegmentBytes = cfg.WAL.SegmentBytes
	}
	if cfg.WAL.RetainBytes > 0 {
		w.RetainBytes = cfg.WAL.RetainBytes
	}
	if cfg.WAL.RetainAge > 0 {
		w.RetainAge = cfg.WAL.RetainAge
	}
	if cfg.WAL.FsyncEvery > 0 {
		w.FsyncEvery = cfg.WAL.FsyncEvery
	}
	w.Budget = budget
	cfg.WAL = w
	cfg.StateDir = stateDir
}

// writeSpecFile atomically persists the session request next to its WAL
// so Recover can resurrect the session; a directory fsync through fs
// (nil = the real filesystem) makes the rename durable.
func writeSpecFile(fs FS, path string, req SessionRequest) error {
	if fs == nil {
		fs = osFS{}
	}
	dir, tmp := filepath.Dir(path), path+".tmp"
	data, err := json.MarshalIndent(req, "", "  ")
	if err == nil {
		err = os.MkdirAll(dir, 0o755)
	}
	var f *os.File
	if err == nil {
		f, err = os.Create(tmp)
	}
	if err == nil {
		_, err = f.Write(append(data, '\n'))
		if err == nil {
			err = f.Sync()
		}
		if cerr := f.Close(); err == nil {
			err = cerr
		}
		if err == nil {
			err = os.Rename(tmp, path)
		}
		if err != nil {
			os.Remove(tmp)
		}
	}
	if err == nil {
		if err = fs.SyncDir(dir); err != nil {
			os.Remove(path) // not durable: no spec for Recover to find
		}
	}
	if err != nil {
		return fmt.Errorf("netstream: persist session spec: %w", err)
	}
	return nil
}

// waitPendingDelete blocks while the identified session's durable state
// is still being torn down by a concurrent Delete.
func (s *Service) waitPendingDelete(id string) {
	for {
		s.mu.Lock()
		ch := s.deleting[id]
		s.mu.Unlock()
		if ch == nil {
			return
		}
		<-ch
	}
}

// Get returns the named session.
func (s *Service) Get(tenant, name string) (*Session, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	sess, ok := s.sessions[sessionID(tenant, name)]
	return sess, ok
}

// List snapshots every session's status, ordered by ID.
func (s *Service) List() []SessionStatus {
	sessions := s.snapshotSessions()
	sort.Slice(sessions, func(i, j int) bool { return sessions[i].ID() < sessions[j].ID() })
	out := make([]SessionStatus, len(sessions))
	for i, sess := range sessions {
		out[i] = sess.status()
	}
	return out
}

// Delete stops the named session through the bounded-drain path and
// removes it: subscribers get the session's DrainTimeout to finish
// reading, then are force-closed — a subscriber wedged behind a
// block-policy stall therefore delays Delete by at most the drain
// deadline, never indefinitely. A durable session's WAL bytes are
// released from the tenant's budget and its state directory removed
// (or archived under <StateDir>/.deleted when ArchiveDeleted); a
// concurrent create of the same ID waits for the teardown to finish.
// Returns the pipeline's terminal error.
func (s *Service) Delete(tenant, name string) error {
	id := sessionID(tenant, name)
	s.mu.Lock()
	sess, ok := s.sessions[id]
	if ok {
		delete(s.sessions, id)
	}
	ts := s.tenants[tenant]
	var pending chan struct{}
	if ok && sess.stateDir != "" {
		pending = make(chan struct{})
		s.deleting[id] = pending
	}
	s.mu.Unlock()
	if !ok {
		return fmt.Errorf("%w: %s", ErrUnknownSession, id)
	}
	err := sess.stop()
	if sess.stateDir != "" {
		// stop() already closed the log and released its bytes from the
		// tenant ledger, so the files can go.
		if rerr := s.removeState(sess); rerr != nil {
			s.logf("session %s state teardown: %v", id, rerr)
		}
	}
	if ts != nil {
		ts.releaseSession()
	}
	if pending != nil {
		s.mu.Lock()
		delete(s.deleting, id)
		s.mu.Unlock()
		close(pending)
	}
	s.logf("session %s deleted (drain_expired=%t)", id, sess.srv.DrainExpired())
	return err
}

// removeState deletes (or archives) a durable session's state
// directory.
func (s *Service) removeState(sess *Session) error {
	if !s.cfg.ArchiveDeleted {
		return os.RemoveAll(sess.stateDir)
	}
	dst := filepath.Join(s.cfg.StateDir, ".deleted", sess.tenant, sess.name)
	if err := os.MkdirAll(filepath.Dir(dst), 0o755); err != nil {
		return err
	}
	// A session deleted and recreated repeatedly archives under numbered
	// suffixes rather than clobbering the earlier archive.
	candidate := dst
	for i := 1; ; i++ {
		if _, err := os.Stat(candidate); errors.Is(err, os.ErrNotExist) {
			break
		}
		candidate = fmt.Sprintf("%s.%d", dst, i)
	}
	return os.Rename(sess.stateDir, candidate)
}

// Recover scans the state directory and resurrects every persisted
// session: each <StateDir>/<tenant>/<session>/spec.json is re-created
// through the normal create path (quotas enforced, WAL budgets settled
// from the bytes already on disk), where the attached WAL supplies the
// durable high-water mark and the deterministic re-run regenerates the
// suppressed region — restart recovery per session. Individual broken
// sessions are logged and skipped, never fatal; returns the recovered
// session IDs, sorted. No-op without a state dir.
func (s *Service) Recover() ([]string, error) {
	if s.cfg.StateDir == "" {
		return nil, nil
	}
	// A session directory without a spec is a half-provisioned create or
	// foreign debris, and dot-prefixed entries (.deleted archives) are not
	// tenants: both are left alone.
	specs, err := filepath.Glob(filepath.Join(s.cfg.StateDir, "*", "*", "spec.json"))
	if err != nil {
		return nil, fmt.Errorf("netstream: scan state dir: %w", err)
	}
	var recovered []string
	for _, specPath := range specs {
		name := filepath.Base(filepath.Dir(specPath))
		tenant := filepath.Base(filepath.Dir(filepath.Dir(specPath)))
		id := tenant + "/" + name
		if strings.HasPrefix(tenant, ".") || strings.HasPrefix(name, ".") {
			continue
		}
		var req SessionRequest
		data, err := os.ReadFile(specPath)
		if err == nil {
			err = json.Unmarshal(data, &req)
		}
		switch {
		case err != nil:
			s.logf("recover: session %s: bad spec: %v", id, err)
		case req.Tenant != tenant || req.Name != name:
			s.logf("recover: session %s: spec names %s/%s; skipping", id, req.Tenant, req.Name)
		default:
			if _, err := s.create(req, true); err != nil {
				s.logf("recover: session %s: %v", id, err)
			} else {
				recovered = append(recovered, id)
			}
		}
	}
	sort.Strings(recovered)
	return recovered, nil
}

// Close stops every session (in parallel, each through the bounded
// drain) and rejects further control-plane calls.
func (s *Service) Close() {
	s.mu.Lock()
	if s.closed {
		s.mu.Unlock()
		return
	}
	s.closed = true
	sessions := make([]*Session, 0, len(s.sessions))
	for _, sess := range s.sessions {
		sessions = append(sessions, sess)
	}
	s.sessions = make(map[string]*Session)
	s.mu.Unlock()
	var wg sync.WaitGroup
	for _, sess := range sessions {
		wg.Add(1)
		go func(sess *Session) {
			defer wg.Done()
			_ = sess.stop()
		}(sess)
	}
	wg.Wait()
}

// resolve maps a channel to its session: <tenant>/<session>/<channel>
// to a named session, a bare name (no '/') to the unnamed one. A missing
// session — deleted or never created — fails promptly with a typed
// UnknownChannelError.
func (s *Service) resolve(channel string) (*Session, error) {
	id := ""
	if i := strings.LastIndexByte(channel, '/'); i >= 0 {
		id = channel[:i]
	}
	s.mu.Lock()
	sess, ok := s.sessions[id]
	s.mu.Unlock()
	if !ok {
		return nil, &UnknownChannelError{Channel: channel}
	}
	return sess, nil
}

// subscribeGate applies the session tenant's subscriber quota and builds
// the per-frame throttle (rate limit + throughput accounting). release
// must be called when the subscription ends. The unnamed session has no
// tenant: it passes ungated and unaccounted.
func (s *Service) subscribeGate(sess *Session) (throttle throttleFunc, release func(), err error) {
	tenant := sess.tenant
	if tenant == "" {
		return nil, func() {}, nil
	}
	ts := s.tenant(tenant)
	if err := ts.acquireSub(); err != nil {
		s.reg.AddTenantQuotaRejection(tenant)
		return nil, nil, err
	}
	throttle = func(n int, beforeSleep func() error) error {
		if terr := ts.throttle(sess.ctx, n, beforeSleep); terr != nil {
			if errors.Is(terr, ErrQuota) {
				s.reg.AddTenantQuotaRejection(tenant)
			}
			return terr
		}
		s.reg.AddTenantDelivery(tenant, 1, uint64(n))
		return nil
	}
	return throttle, ts.releaseSub, nil
}

// Serve accepts raw-TCP subscribers on tcpLn and HTTP (control plane +
// streams) on httpLn until ctx is cancelled, then closes the service:
// every session drains through its bounded deadline, and connections
// that never subscribed are closed. Either listener may be nil.
func (s *Service) Serve(ctx context.Context, tcpLn, httpLn net.Listener) error {
	var wg sync.WaitGroup
	// Every accepted connection is tracked until its handler returns: the
	// sessions' drains close the subscribed ones, this closes the rest.
	var connMu sync.Mutex
	conns := make(map[net.Conn]struct{})
	accepting := make(chan struct{})
	go func() {
		defer close(accepting)
		for tcpLn != nil {
			conn, err := tcpLn.Accept()
			if err != nil {
				return
			}
			connMu.Lock()
			conns[conn] = struct{}{}
			connMu.Unlock()
			wg.Add(1)
			go func() {
				defer wg.Done()
				s.handleConn(conn)
				connMu.Lock()
				delete(conns, conn)
				connMu.Unlock()
			}()
		}
	}()
	var httpSrv *http.Server
	if httpLn != nil {
		httpSrv = &http.Server{Handler: s.HTTPHandler()}
		wg.Add(1)
		go func() {
			defer wg.Done()
			if err := httpSrv.Serve(httpLn); err != nil && !errors.Is(err, http.ErrServerClosed) && !errors.Is(err, net.ErrClosed) {
				s.logf("http: %v", err)
			}
		}()
	}
	<-ctx.Done()
	if tcpLn != nil {
		tcpLn.Close()
	}
	<-accepting
	s.Close()
	connMu.Lock()
	for conn := range conns {
		conn.Close()
	}
	connMu.Unlock()
	if httpSrv != nil {
		shCtx, cancel := context.WithTimeout(context.Background(), time.Second)
		defer cancel()
		_ = httpSrv.Shutdown(shCtx)
	}
	wg.Wait()
	return nil
}

// handleConn speaks the TCP protocol: one subscribe request in, then
// the owning session's stream of length-prefixed frames out, under the
// tenant's throttle, until a terminal frame.
func (s *Service) handleConn(conn net.Conn) {
	defer conn.Close()
	req, ok := readSubscribe(conn)
	if !ok {
		return
	}
	if req.Channel == "" {
		req.Channel = ChannelDirty
	}
	sess, err := s.resolve(req.Channel)
	if err != nil {
		writeConnError(conn, err)
		return
	}
	throttle, release, err := s.subscribeGate(sess)
	if err != nil {
		writeConnError(conn, err)
		return
	}
	defer release()
	sess.srv.trackConn(conn)
	defer sess.srv.untrackConn(conn)
	sess.srv.streamTCP(conn, req.Channel, req.FromSeq, throttle)
}

// writeConnError best-effort reports err as a terminal frame (typed
// gap/quota payloads included).
func writeConnError(conn net.Conn, err error) {
	data, merr := EncodeFrame(errorFrame(err))
	if merr != nil {
		return
	}
	_ = conn.SetWriteDeadline(time.Now().Add(2 * time.Second))
	_ = WriteFrame(conn, data)
}

// HTTPHandler returns the service's HTTP interface:
//
//	POST   /v1/sessions                      — create a session
//	GET    /v1/sessions                      — list sessions
//	GET    /v1/sessions/{tenant}/{name}      — one session's status
//	DELETE /v1/sessions/{tenant}/{name}      — stop a session (bounded drain)
//	GET    /stream?channel=t/s/dirty&from_seq=N — NDJSON stream (a bare
//	                                           channel is the unnamed session's)
//	GET    /metrics                          — Prometheus text (per-tenant families)
//	GET    /healthz                          — per-session states
func (s *Service) HTTPHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /v1/sessions", s.handleCreate)
	mux.HandleFunc("GET /v1/sessions", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, map[string]any{"sessions": s.List()})
	})
	mux.HandleFunc("GET /v1/sessions/{tenant}/{name}", func(w http.ResponseWriter, r *http.Request) {
		sess, ok := s.Get(r.PathValue("tenant"), r.PathValue("name"))
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": ErrUnknownSession.Error()})
			return
		}
		writeJSON(w, http.StatusOK, sess.status())
	})
	mux.HandleFunc("DELETE /v1/sessions/{tenant}/{name}", func(w http.ResponseWriter, r *http.Request) {
		tenant, name := r.PathValue("tenant"), r.PathValue("name")
		sess, ok := s.Get(tenant, name)
		if !ok {
			writeJSON(w, http.StatusNotFound, map[string]any{"error": ErrUnknownSession.Error()})
			return
		}
		err := s.Delete(tenant, name)
		resp := map[string]any{"deleted": sess.ID(), "drain_expired": sess.srv.DrainExpired()}
		if err != nil && !errors.Is(err, ErrUnknownSession) {
			resp["pipeline_error"] = err.Error()
		}
		writeJSON(w, http.StatusOK, resp)
	})
	mux.HandleFunc("GET /stream", s.serveStream)
	mux.HandleFunc("GET /metrics", func(w http.ResponseWriter, r *http.Request) {
		snap := s.reg.Snapshot()
		if snap == nil {
			http.Error(w, "metrics disabled", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		if err := snap.WritePrometheus(w); err != nil {
			s.logf("metrics: %v", err)
		}
	})
	mux.HandleFunc("GET /healthz", func(w http.ResponseWriter, r *http.Request) {
		statuses := s.List()
		sessions := make(map[string]SessionStatus, len(statuses))
		state := "ok"
		for _, st := range statuses {
			sessions[sessionID(st.Tenant, st.Name)] = st
			if st.State == "failed" || st.State == "quarantined" {
				state = "degraded"
			}
		}
		writeJSON(w, http.StatusOK, map[string]any{"state": state, "sessions": sessions})
	})
	return mux
}

// handleCreate is POST /v1/sessions. Quota violations answer 429 with
// the typed payload in the body; duplicates 409; bad specs 400.
func (s *Service) handleCreate(w http.ResponseWriter, r *http.Request) {
	var req SessionRequest
	if err := json.NewDecoder(r.Body).Decode(&req); err != nil {
		writeJSON(w, http.StatusBadRequest, map[string]any{"error": fmt.Sprintf("bad session request: %v", err)})
		return
	}
	sess, err := s.Create(req)
	if err != nil {
		var quota *QuotaError
		switch {
		case errors.As(err, &quota):
			writeJSON(w, http.StatusTooManyRequests, map[string]any{"error": err.Error(), "quota": quota.Info()})
		case errors.Is(err, ErrSessionExists):
			writeJSON(w, http.StatusConflict, map[string]any{"error": err.Error()})
		case errors.Is(err, ErrServiceClosed):
			writeJSON(w, http.StatusServiceUnavailable, map[string]any{"error": err.Error()})
		default:
			writeJSON(w, http.StatusBadRequest, map[string]any{"error": err.Error()})
		}
		return
	}
	writeJSON(w, http.StatusCreated, sess.status())
}

// serveStream routes /stream through the channel's session, with the
// tenant's quota gate and throttle applied.
func (s *Service) serveStream(w http.ResponseWriter, r *http.Request) {
	channel := r.URL.Query().Get("channel")
	if channel == "" {
		channel = ChannelDirty
	}
	sess, err := s.resolve(channel)
	if err != nil {
		http.Error(w, err.Error(), http.StatusNotFound)
		return
	}
	fromSeq, ok := parseFromSeq(w, r)
	if !ok {
		return
	}
	throttle, release, err := s.subscribeGate(sess)
	if err != nil {
		var quota *QuotaError
		if errors.As(err, &quota) {
			w.Header().Set("Content-Type", "application/json")
			w.WriteHeader(http.StatusTooManyRequests)
			_ = json.NewEncoder(w).Encode(map[string]any{"error": err.Error(), "quota": quota.Info()})
			return
		}
		http.Error(w, err.Error(), http.StatusServiceUnavailable)
		return
	}
	defer release()
	sess.srv.streamHTTP(w, r, channel, fromSeq, throttle)
}

// writeJSON renders one JSON control-plane response.
func writeJSON(w http.ResponseWriter, status int, v any) {
	w.Header().Set("Content-Type", "application/json")
	w.WriteHeader(status)
	_ = json.NewEncoder(w).Encode(v)
}
