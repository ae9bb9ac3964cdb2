package netstream

import (
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"sync"
	"testing"

	"icewafl/internal/obs"
)

// durableRequest builds one durable session's create request.
func durableRequest(t *testing.T, tenant, name string, seed int64, n int) SessionRequest {
	t.Helper()
	return SessionRequest{Tenant: tenant, Name: name, Spec: specJSON(t, testSessionSpec{Seed: seed, N: n})}
}

// drainSession subscribes to the session's dirty channel and reads it
// to the terminal frame, failing on anything but a clean EOF.
func drainSession(t *testing.T, tcpAddr, tenant, name string) {
	t.Helper()
	conn := subscribeTCP(t, tcpAddr, tenant+"/"+name+"/"+ChannelDirty, 0)
	defer conn.Close()
	_, terminal := readTCPFrames(t, conn)
	if terminal.Type != FrameEOF {
		t.Fatalf("%s/%s: terminal %q: %s", tenant, name, terminal.Type, terminal.Error)
	}
}

// TestServiceDurableWALBudgetQuota: a tenant whose max_wal_bytes budget
// is exhausted gets a typed wal_bytes QuotaError on the next create,
// the rejection is counted, and the per-tenant gauge rides in /metrics.
// A tenant without the quota is unaffected.
func TestServiceDurableWALBudgetQuota(t *testing.T) {
	reg := obs.NewRegistry()
	svc, tcpAddr, baseURL := startService(t, ServiceConfig{
		Reg:      reg,
		StateDir: t.TempDir(),
		Quotas:   map[string]TenantQuota{"capped": {MaxWALBytes: 1}},
	})

	// The first session opens its logs (already more than 1 byte on
	// disk) and runs to completion.
	if _, err := svc.Create(durableRequest(t, "capped", "first", 3, 50)); err != nil {
		t.Fatal(err)
	}
	drainSession(t, tcpAddr, "capped", "first")

	_, err := svc.Create(durableRequest(t, "capped", "second", 3, 50))
	var qerr *QuotaError
	if !errors.As(err, &qerr) || !errors.Is(err, ErrQuota) {
		t.Fatalf("create over wal budget = %v, want *QuotaError", err)
	}
	if qerr.Resource != "wal_bytes" || qerr.Tenant != "capped" || qerr.Limit != 1 || qerr.Used == 0 {
		t.Fatalf("quota error = %+v", qerr)
	}

	// An uncapped tenant shares the service but not the budget.
	if _, err := svc.Create(durableRequest(t, "free", "s", 3, 50)); err != nil {
		t.Fatalf("uncapped tenant rejected: %v", err)
	}

	// The gauge and the rejection reach /metrics.
	snap := metricsJSON(t, baseURL)
	if snap.TenantWALBytes["capped"] == 0 {
		t.Fatalf("icewafl_tenant_wal_bytes missing for capped tenant: %v", snap.TenantWALBytes)
	}
	if snap.TenantQuotaRejections["capped"] == 0 {
		t.Fatalf("wal_bytes rejection not counted: %v", snap.TenantQuotaRejections)
	}
}

// TestServiceDurableDeleteReleasesBudget is the satellite-3 accounting
// audit: create → delete → recreate cycles must return the tenant's
// WAL-byte ledger to zero and remove the state directory every time —
// no residue, no leak, no drift.
func TestServiceDurableDeleteReleasesBudget(t *testing.T) {
	stateDir := t.TempDir()
	svc, tcpAddr, _ := startService(t, ServiceConfig{
		StateDir: stateDir,
		Quotas:   map[string]TenantQuota{"cycler": {MaxWALBytes: 1 << 20}},
	})
	ts := svc.tenant("cycler")
	sessDir := filepath.Join(stateDir, "cycler", "s")

	for cycle := 0; cycle < 3; cycle++ {
		if _, err := svc.Create(durableRequest(t, "cycler", "s", 5, 80)); err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		drainSession(t, tcpAddr, "cycler", "s")
		if used := ts.walBudget.Used(); used == 0 {
			t.Fatalf("cycle %d: no WAL bytes accounted while running", cycle)
		}
		if _, err := os.Stat(filepath.Join(sessDir, "spec.json")); err != nil {
			t.Fatalf("cycle %d: spec not persisted: %v", cycle, err)
		}
		if err := svc.Delete("cycler", "s"); err != nil {
			t.Fatalf("cycle %d delete: %v", cycle, err)
		}
		if used := ts.walBudget.Used(); used != 0 {
			t.Fatalf("cycle %d: %d WAL bytes still accounted after delete", cycle, used)
		}
		if _, err := os.Stat(sessDir); !errors.Is(err, os.ErrNotExist) {
			t.Fatalf("cycle %d: state dir survives delete: %v", cycle, err)
		}
	}
}

// TestServiceDurableArchiveDeleted: with ArchiveDeleted the teardown
// moves the session's state under <StateDir>/.deleted instead of
// removing it, numbering repeat archives instead of clobbering.
func TestServiceDurableArchiveDeleted(t *testing.T) {
	stateDir := t.TempDir()
	svc, tcpAddr, _ := startService(t, ServiceConfig{
		StateDir:       stateDir,
		ArchiveDeleted: true,
	})
	for cycle := 0; cycle < 2; cycle++ {
		if _, err := svc.Create(durableRequest(t, "t", "a", 9, 30)); err != nil {
			t.Fatalf("cycle %d create: %v", cycle, err)
		}
		drainSession(t, tcpAddr, "t", "a")
		if err := svc.Delete("t", "a"); err != nil {
			t.Fatalf("cycle %d delete: %v", cycle, err)
		}
	}
	first := filepath.Join(stateDir, ".deleted", "t", "a")
	second := first + ".1"
	for _, p := range []string{first, second} {
		if _, err := os.Stat(filepath.Join(p, "spec.json")); err != nil {
			t.Fatalf("archive %s incomplete: %v", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(stateDir, "t", "a")); !errors.Is(err, os.ErrNotExist) {
		t.Fatalf("live state dir survives archive: %v", err)
	}
}

// TestServiceUnnamedSessionStateDir: the unnamed session is made
// durable by the service's StateDir, as a named one is, with the one
// layout at the state dir's top: the session log under wal/, holding
// every channel and, at reorder 1, the checkpoints. Delete stops it but
// never removes or archives that state, even under ArchiveDeleted.
func TestServiceUnnamedSessionStateDir(t *testing.T) {
	if _, ok := reflect.TypeOf(Config{}).FieldByName("StateDir"); !ok {
		t.Fatal("Config has no StateDir")
	}
	for _, gone := range []string{"WALDir", "CheckpointPath"} {
		if _, ok := reflect.TypeOf(Config{}).FieldByName(gone); ok {
			t.Errorf("Config still has %s: StateDir is the one durable layout", gone)
		}
	}
	const seed, n = 21, 80
	stateDir := t.TempDir()
	svc, tcpAddr, _ := startService(t, ServiceConfig{StateDir: stateDir, ArchiveDeleted: true})
	cfg := serverConfig(t, seed, n)
	cfg.CheckpointEvery = 16
	sess, err := svc.Start(cfg)
	if err != nil {
		t.Fatal(err)
	}
	waitPipelineDone(t, sess.Server())
	if st := sess.status(); !st.Durable || st.State != "done" {
		t.Fatalf("unnamed session status %+v, want durable and done", st)
	}
	refDirty, _, _ := referenceRun(t, seed, n, 1)
	c, err := Dial(tcpAddr, ChannelDirty)
	if err != nil {
		t.Fatal(err)
	}
	sameTuples(t, "unnamed durable session", drainClient(t, c), refDirty)
	if err := svc.Delete("", ""); err != nil {
		t.Fatal(err)
	}
	if ck, err := sessionLogCheckpoint(t, stateDir); err != nil || ck == nil {
		t.Errorf("no checkpoint in the session log after Delete: %v", err)
	}
	for _, p := range []string{filepath.Join("wal", ChannelDirty), "checkpoint"} {
		if _, err := os.Stat(filepath.Join(stateDir, p)); !errors.Is(err, os.ErrNotExist) {
			t.Errorf("%s exists: the session log is the one durable file set (%v)", p, err)
		}
	}
	if _, err := os.Stat(filepath.Join(stateDir, ".deleted")); !errors.Is(err, os.ErrNotExist) {
		t.Errorf("the unnamed session's state was archived: %v", err)
	}
}

// TestServiceDurableRecover is the in-process restart round-trip: a
// second Service pointed at the first one's state dir resurrects every
// persisted session through Recover, marks it resumed, settles the
// tenant's budget from the bytes already on disk, and serves streams
// byte-identical to the original run. The .deleted archive area is
// never mistaken for a tenant.
func TestServiceDurableRecover(t *testing.T) {
	stateDir := t.TempDir()
	const n = 120
	svc1, tcp1, _ := startService(t, ServiceConfig{
		StateDir:       stateDir,
		ArchiveDeleted: true,
	})
	for _, tenant := range []string{"alpha", "beta"} {
		for _, name := range []string{"s0", "s1"} {
			if _, err := svc1.Create(durableRequest(t, tenant, name, 7, n)); err != nil {
				t.Fatalf("create %s/%s: %v", tenant, name, err)
			}
			drainSession(t, tcp1, tenant, name)
		}
	}
	// One deleted session lands in the archive; Recover must skip it.
	if err := svc1.Delete("alpha", "s1"); err != nil {
		t.Fatal(err)
	}
	svc1.Close()

	svc2, tcp2, _ := startService(t, ServiceConfig{
		StateDir: stateDir,
		Quotas:   map[string]TenantQuota{"alpha": {MaxWALBytes: 1 << 20}},
	})
	ids, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"alpha/s0", "beta/s0", "beta/s1"}
	if len(ids) != len(want) {
		t.Fatalf("recovered %v, want %v", ids, want)
	}
	for i := range want {
		if ids[i] != want[i] {
			t.Fatalf("recovered %v, want %v", ids, want)
		}
	}

	// Recovered sessions carry the durable markers on the control plane.
	for _, st := range svc2.List() {
		if !st.Durable || !st.Resumed {
			t.Fatalf("session %s/%s: durable=%t resumed=%t, want both", st.Tenant, st.Name, st.Durable, st.Resumed)
		}
	}
	// The recovered bytes were settled into alpha's budget before any
	// new append.
	if used := svc2.tenant("alpha").walBudget.Used(); used == 0 {
		t.Fatal("alpha's recovered WAL bytes not settled into the budget")
	}

	// Every resurrected stream replays byte-identical to the reference.
	refDirty, _, _ := referenceRun(t, 7, n, 1)
	for _, id := range want {
		conn := subscribeTCP(t, tcp2, id+"/"+ChannelDirty, 0)
		tuples, terminal := readTCPFrames(t, conn)
		conn.Close()
		if terminal.Type != FrameEOF {
			t.Fatalf("%s: terminal %q: %s", id, terminal.Type, terminal.Error)
		}
		sameTuples(t, id, tuples, refDirty)
	}

	// The deleted session stayed deleted.
	if _, ok := svc2.Get("alpha", "s1"); ok {
		t.Fatal("archived session resurrected")
	}
}

// TestServiceRecoverRejectsColumnarSpec: a state directory an older
// build left behind holds a session whose configuration sets
// serve.columnar. Recover skips that session with a logged error naming
// the key and leaves its files alone, and the other session recovers
// byte-identical.
func TestServiceRecoverRejectsColumnarSpec(t *testing.T) {
	stateDir := t.TempDir()
	const n = 120
	svc1, tcp1, _ := startService(t, ServiceConfig{StateDir: stateDir})
	if _, err := svc1.Create(durableRequest(t, "alpha", "plain", 7, n)); err != nil {
		t.Fatal(err)
	}
	drainSession(t, tcp1, "alpha", "plain")
	svc1.Close()

	// The older build accepted the key and persisted the spec as is.
	old, err := json.Marshal(SessionRequest{Tenant: "alpha", Name: "columnar", Spec: json.RawMessage(
		`{"seed": 7, "n": 120, "config": {"pipelines": [], "serve": {"columnar": true, "columnar_batch": 64}}}`)})
	if err != nil {
		t.Fatal(err)
	}
	oldDir := filepath.Join(stateDir, "alpha", "columnar")
	if err := os.MkdirAll(oldDir, 0o755); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(oldDir, "spec.json"), old, 0o644); err != nil {
		t.Fatal(err)
	}

	var mu sync.Mutex
	var logs []string
	svc2, tcp2, _ := startService(t, ServiceConfig{StateDir: stateDir, Logf: func(format string, args ...any) {
		mu.Lock()
		defer mu.Unlock()
		logs = append(logs, fmt.Sprintf(format, args...))
	}})
	ids, err := svc2.Recover()
	if err != nil {
		t.Fatal(err)
	}
	if len(ids) != 1 || ids[0] != "alpha/plain" {
		t.Fatalf("recovered %v, want [alpha/plain]", ids)
	}
	mu.Lock()
	logged := strings.Join(logs, "\n")
	mu.Unlock()
	if !strings.Contains(logged, "recover: session alpha/columnar") || !strings.Contains(logged, `unknown field "columnar"`) {
		t.Fatalf("no logged error naming serve.columnar for alpha/columnar:\n%s", logged)
	}
	if _, err := os.Stat(filepath.Join(oldDir, "spec.json")); err != nil {
		t.Fatalf("the skipped session's state was touched: %v", err)
	}

	refDirty, _, _ := referenceRun(t, 7, n, 1)
	conn := subscribeTCP(t, tcp2, "alpha/plain/"+ChannelDirty, 0)
	tuples, terminal := readTCPFrames(t, conn)
	conn.Close()
	if terminal.Type != FrameEOF {
		t.Fatalf("alpha/plain: terminal %q: %s", terminal.Type, terminal.Error)
	}
	sameTuples(t, "alpha/plain", tuples, refDirty)
}
