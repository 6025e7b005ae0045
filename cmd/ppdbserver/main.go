// Command ppdbserver serves a PPDB over HTTP (see internal/httpapi for the
// endpoint reference). It boots from a DSL corpus: the policy block becomes
// the house policy, the provider blocks are registered, and one table is
// created with the named columns (all FLOAT except the provider key).
//
// Usage:
//
//	ppdbserver -corpus corpus.dsl -table records -key provider -cols weight,condition -addr :8080
//
// Then:
//
//	curl -X POST localhost:8080/v1/query -d '{"purpose":"care","visibility":2,"sql":"SELECT ..."}'
//	curl localhost:8080/v1/certify?alpha=0.1
//	curl -X POST localhost:8080/v1/whatif -d '{"u":10,"diff":{"retarget":[...]}}'
//	curl localhost:8080/v1/routes
//	curl localhost:8080/v1/healthz
//	curl localhost:8080/v1/metrics
//
// (The pre-/v1 unversioned paths still answer, with Deprecation: true and
// RFC 8594 Sunset headers; see API.md.) -shards controls how many provider-store/ledger
// shards back the DB — 0, the default, means one per CPU; 1 reproduces the
// serial pre-sharding behavior. Certification output is byte-identical for
// every value.
//
// Lifecycle: the listener binds immediately and serves a bootstrap handler
// while the store recovers (snapshot load plus WAL replay): /healthz is up,
// /readyz answers 503 {"status":"recovering"}, everything else is shed with
// a 503 + Retry-After. The real API swaps in once recovery completes.
// SIGINT/SIGTERM flips /readyz to 503, drains in-flight requests for up to
// -drain-timeout, writes a final checkpoint (when a snapshot directory is
// configured) and exits cleanly. -snapshot-interval checkpoints the
// database periodically from a background goroutine through ppdb.Save's
// crash-safe atomic path — skipping when nothing changed since the last
// checkpoint — so a `ppdbserver -load <dir>` restart always finds a
// verifiable generation.
//
// Durability (DESIGN.md §14): -wal-dir arms a write-ahead log — every
// provider/policy/clock/sweep mutation is fsync-durable (group commit,
// tuned by -wal-sync-interval / -wal-sync-every) before the request is
// acknowledged, and a restart replays the log tail over the newest
// snapshot, so acknowledged mutations survive a kill -9 between
// checkpoints. Checkpoints prune replayed WAL segments.
//
// Observability (DESIGN.md §10): GET /metrics serves the process metrics
// (request, ledger, persistence, and the paper's P(W)/P(Default)/N
// gauges); every request is logged as one structured key=value line
// unless -access-log=false; -pprof-addr serves net/http/pprof on a
// second, normally firewalled listener — profiling stays opt-in and off
// the public port.
package main

import (
	"context"
	"flag"
	"fmt"
	"log"
	"net"
	"net/http"
	"net/http/pprof"
	"os"
	"os/signal"
	"strings"
	"syscall"
	"time"

	"repro/internal/httpapi"
	"repro/internal/kvlog"
	"repro/internal/policydsl"
	"repro/internal/ppdb"
	"repro/internal/relational"
	"repro/internal/wal"
)

func main() {
	corpus := flag.String("corpus", "", "DSL corpus with the policy and initial providers")
	load := flag.String("load", "", "boot from a directory written by ppdb.Save (overrides -corpus)")
	table := flag.String("table", "records", "table name to create")
	key := flag.String("key", "provider", "provider-identity column (TEXT PRIMARY KEY)")
	cols := flag.String("cols", "", "comma-separated FLOAT data columns")
	addr := flag.String("addr", ":8080", "listen address")
	snapshotDir := flag.String("snapshot-dir", "", "directory for periodic/final snapshots (defaults to the -load directory)")
	snapshotEvery := flag.Duration("snapshot-interval", 0, "persist a snapshot this often (0 disables periodic snapshots)")
	drainTimeout := flag.Duration("drain-timeout", 15*time.Second, "how long shutdown waits for in-flight requests")
	pprofAddr := flag.String("pprof-addr", "", "serve net/http/pprof on this address (empty disables; keep it firewalled)")
	accessLog := flag.Bool("access-log", true, "log one structured key=value line per request")
	operatorToken := flag.String("operator-token", "", "token granting the operator privilege (X-Operator-Token header): EXPLAIN traces and exact index-scan counts on POST /v1/query (empty disables both)")
	shards := flag.Int("shards", 0, "provider-store/ledger shards and certification fan-out width (0 = one per CPU, 1 = serial)")
	walDir := flag.String("wal-dir", "", "write-ahead log directory: mutations are fsync-durable before acknowledgment and replay on restart (empty disables the WAL)")
	walSyncInterval := flag.Duration("wal-sync-interval", 2*time.Millisecond, "WAL group-commit fsync interval")
	walSyncEvery := flag.Int("wal-sync-every", 64, "fsync once this many WAL records are pending, even before the interval elapses")
	flag.Parse()

	if *snapshotEvery > 0 && *snapshotDir == "" && *load == "" {
		fmt.Fprintln(os.Stderr, "ppdbserver: -snapshot-interval needs -snapshot-dir (or -load)")
		os.Exit(1)
	}
	if *pprofAddr != "" {
		pln, err := net.Listen("tcp", *pprofAddr)
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppdbserver: pprof listener: %v\n", err)
			os.Exit(1)
		}
		log.Print(kvlog.Line("event", "pprof_listening", "addr", pln.Addr()))
		//lint:ignore fanout[the pprof listener is deliberately fire-and-forget for the process lifetime; its exit is logged and must not stall startup]
		go func() {
			// The pprof listener dying must not take the service down:
			// log it and keep serving the main port.
			err := http.Serve(pln, pprofHandler())
			log.Print(kvlog.Line("event", "pprof_server_exit", "err", err))
		}()
	}

	// Bind and answer probes immediately; the store recovers behind the
	// bootstrap handler, which reports "recovering" until the swap.
	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppdbserver: %v\n", err)
		os.Exit(1)
	}
	log.Print(kvlog.Line("event", "listening", "addr", ln.Addr()))
	// Trap SIGINT/SIGTERM before anything serves, so a signal that lands
	// while the store recovers drains instead of killing the process.
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	boot := httpapi.NewBootstrap()
	srv, errc := startServer(ln, boot)

	var db *ppdb.DB
	if *load != "" {
		db, err = ppdb.Load(*load, ppdb.Config{Shards: *shards})
		if *snapshotDir == "" {
			*snapshotDir = *load
		}
	} else {
		db, err = build(*corpus, *table, *key, *cols, *shards)
	}
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppdbserver: %v\n", err)
		os.Exit(1)
	}
	if *walDir != "" {
		n, err := db.AttachWAL(wal.Options{
			Dir:          *walDir,
			SyncInterval: *walSyncInterval,
			SyncEvery:    *walSyncEvery,
		})
		if err != nil {
			fmt.Fprintf(os.Stderr, "ppdbserver: wal: %v\n", err)
			os.Exit(1)
		}
		log.Print(kvlog.Line("event", "wal_recovered", "dir", *walDir, "replayed", n))
	}
	opts := httpapi.Options{OperatorToken: *operatorToken}
	if *accessLog {
		opts.RequestLog = log.Default()
	}
	api, err := httpapi.NewWith(db, opts)
	if err != nil {
		fmt.Fprintf(os.Stderr, "ppdbserver: %v\n", err)
		os.Exit(1)
	}
	boot.Set(api)
	log.Print(kvlog.Line("event", "ready"))
	if err := run(ctx, stop, srv, errc, api, db, *snapshotDir, *snapshotEvery, *drainTimeout); err != nil {
		fmt.Fprintf(os.Stderr, "ppdbserver: %v\n", err)
		os.Exit(1)
	}
}

// pprofHandler is the opt-in profiling surface behind -pprof-addr: the
// standard net/http/pprof routes on a private mux, so nothing profiling-
// related ever registers on the service listener.
func pprofHandler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// startServer wraps a handler in an http.Server with conservative timeouts
// and starts serving the already-bound listener. The returned channel
// yields Serve's exit error.
func startServer(ln net.Listener, h http.Handler) (*http.Server, <-chan error) {
	srv := &http.Server{
		Handler:           h,
		ReadHeaderTimeout: 5 * time.Second,
		ReadTimeout:       30 * time.Second,
		WriteTimeout:      60 * time.Second,
		IdleTimeout:       120 * time.Second,
	}
	errc := make(chan error, 1)
	//lint:ignore fanout[the serve loop runs for the process lifetime; run() reaps its exit through errc]
	go func() { errc <- srv.Serve(ln) }()
	return srv, errc
}

// serve runs the full lifecycle on an already-bound listener with the API
// ready from the start (no recovery window). The signal handler is
// installed before the listener serves. main uses startServer+run directly
// so the bootstrap handler can answer during recovery.
func serve(ln net.Listener, api *httpapi.Server, db *ppdb.DB, snapDir string, every, drainTimeout time.Duration) error {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	srv, errc := startServer(ln, api)
	return run(ctx, stop, srv, errc, api, db, snapDir, every, drainTimeout)
}

// run is the hardened lifecycle of a serving process: a background
// checkpoint goroutine (periodic crash-safe snapshots that skip when
// nothing changed since the last one, and prune replayed WAL segments) and
// a graceful drain once ctx is done, ending in a final checkpoint and WAL
// close. ctx and stop come from signal.NotifyContext, created by the caller
// before the listener starts serving so no early SIGINT/SIGTERM is lost;
// run owns stop. It returns nil on a clean drained shutdown.
func run(ctx context.Context, stop context.CancelFunc, srv *http.Server, errc <-chan error, api *httpapi.Server, db *ppdb.DB, snapDir string, every, drainTimeout time.Duration) error {
	defer stop()

	// The checkpointer runs off the serve loop so a slow Save never blocks
	// signal handling; Checkpoint itself serializes concurrent calls and
	// lets mutations proceed while it renders.
	var ckptQuit, ckptDone chan struct{}
	if every > 0 && snapDir != "" {
		ckptQuit, ckptDone = make(chan struct{}), make(chan struct{})
		go func() {
			defer close(ckptDone)
			ticker := time.NewTicker(every)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					if wrote, err := db.Checkpoint(snapDir); err != nil {
						log.Print(kvlog.Line("event", "snapshot_error", "kind", "periodic", "dir", snapDir, "err", err))
					} else if wrote {
						log.Print(kvlog.Line("event", "snapshot_written", "kind", "periodic", "dir", snapDir))
					}
				case <-ckptQuit:
					return
				}
			}
		}()
	}

	select {
	case err := <-errc:
		// The listener died under us (Serve never returns nil, and
		// nothing else calls Shutdown): surface it.
		if ckptQuit != nil {
			close(ckptQuit)
			<-ckptDone
		}
		return err
	case <-ctx.Done():
		stop() // a second signal now kills the process the default way
		log.Print(kvlog.Line("event", "shutdown", "drain_timeout", drainTimeout))
		api.SetReady(false)
		sctx, cancel := context.WithTimeout(context.Background(), drainTimeout)
		defer cancel()
		err := srv.Shutdown(sctx)
		if ckptQuit != nil {
			close(ckptQuit)
			<-ckptDone
		}
		if snapDir != "" {
			if wrote, serr := db.Checkpoint(snapDir); serr != nil {
				log.Print(kvlog.Line("event", "snapshot_error", "kind", "final", "dir", snapDir, "err", serr))
			} else if wrote {
				log.Print(kvlog.Line("event", "snapshot_written", "kind", "final", "dir", snapDir))
			}
		}
		if db.WALAttached() {
			if cerr := db.CloseWAL(); cerr != nil {
				log.Print(kvlog.Line("event", "wal_close_error", "err", cerr))
			}
		}
		<-errc // reap the Serve goroutine (http.ErrServerClosed)
		if err != nil {
			return fmt.Errorf("drain incomplete after %s: %w", drainTimeout, err)
		}
		log.Print(kvlog.Line("event", "drained"))
		return nil
	}
}

// build assembles the PPDB from the flags.
func build(corpusPath, table, key, cols string, shards int) (*ppdb.DB, error) {
	if corpusPath == "" {
		return nil, fmt.Errorf("-corpus is required")
	}
	src, err := os.ReadFile(corpusPath)
	if err != nil {
		return nil, err
	}
	doc, err := policydsl.Parse(string(src))
	if err != nil {
		return nil, err
	}
	if doc.Policy == nil {
		return nil, fmt.Errorf("corpus has no policy block")
	}
	db, err := ppdb.New(ppdb.Config{Policy: doc.Policy, AttrSens: doc.AttrSens, Shards: shards})
	if err != nil {
		return nil, err
	}
	columns := []relational.Column{{Name: key, Type: relational.TypeText, PrimaryKey: true}}
	for _, c := range strings.Split(cols, ",") {
		c = strings.TrimSpace(c)
		if c == "" {
			continue
		}
		columns = append(columns, relational.Column{Name: c, Type: relational.TypeFloat})
	}
	schema, err := relational.NewSchema(columns)
	if err != nil {
		return nil, err
	}
	if err := db.RegisterTable(table, schema, key); err != nil {
		return nil, err
	}
	for _, p := range doc.Providers {
		if err := db.RegisterProvider(p); err != nil {
			return nil, err
		}
	}
	return db, nil
}
