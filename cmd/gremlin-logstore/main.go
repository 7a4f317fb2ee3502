// Command gremlin-logstore runs the centralized event-log store that
// Gremlin agents ship their observations to and the Assertion Checker
// queries — the stand-in for the paper's logstash→Elasticsearch pipeline.
//
// Usage:
//
//	gremlin-logstore -addr 127.0.0.1:9200
//	gremlin-logstore -shards 8 -data-dir /var/lib/gremlin -fsync interval
package main

import (
	"errors"
	"flag"
	"fmt"
	"log"
	"os"
	"os/signal"
	"syscall"

	"gremlin/internal/eventlog"
	"gremlin/internal/httpx"
)

func main() {
	if err := run(os.Args[1:]); err != nil {
		log.Fatal(err)
	}
}

func run(args []string) error {
	fs := flag.NewFlagSet("gremlin-logstore", flag.ContinueOnError)
	addr := fs.String("addr", "127.0.0.1:9200", "listen address")
	persist := fs.String("persist", "", "JSON Lines file to load at startup and save on shutdown")
	shards := fs.Int("shards", 1, "number of store shards (request-ID namespaces hash across them)")
	dataDir := fs.String("data-dir", "", "directory for per-shard write-ahead logs (replayed at startup; volatile when empty)")
	fsyncMode := fs.String("fsync", "interval", "WAL fsync policy: always, interval, or never")
	pprofAddr := fs.String("pprof", "", "listen address for /debug/pprof/ endpoints (disabled when empty)")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if *persist != "" && *dataDir != "" {
		return errors.New("gremlin-logstore: -persist and -data-dir are mutually exclusive; the WAL already persists every record")
	}

	policy, err := eventlog.ParseFsyncPolicy(*fsyncMode)
	if err != nil {
		return err
	}
	store, err := eventlog.NewShardedStore(eventlog.StoreOptions{
		Shards:  *shards,
		DataDir: *dataDir,
		Fsync:   policy,
	})
	if err != nil {
		return err
	}
	if n := store.Len(); n > 0 {
		fmt.Printf("replayed %d records from %s\n", n, *dataDir)
	}
	if *persist != "" {
		n, err := store.LoadFile(*persist)
		if err != nil {
			return err
		}
		fmt.Printf("loaded %d records from %s\n", n, *persist)
	}

	srv, err := eventlog.NewServer(*addr, store)
	if err != nil {
		return err
	}
	fmt.Printf("gremlin-logstore listening on %s (%d shard(s))\n", srv.URL(), store.NumShards())
	fmt.Println("  POST   /v1/records  ingest observations (JSON array or NDJSON)")
	fmt.Println("  POST   /v1/query    query observations")
	fmt.Println("  POST   /v1/count    count matching observations")
	fmt.Println("  DELETE /v1/records  clear")
	fmt.Println("  GET    /v1/stats    record count and shard topology")
	fmt.Println("  GET    /v1/stream   live SSE record stream (?pattern=)")
	fmt.Println("  GET    /metrics     Prometheus text exposition")
	if *pprofAddr != "" {
		dbg, err := httpx.StartPprof(*pprofAddr)
		if err != nil {
			_ = srv.Close()
			_ = store.Close()
			return err
		}
		defer dbg.Close()
		fmt.Printf("  pprof: %s/debug/pprof/\n", dbg.URL())
	}

	waitForSignal()
	fmt.Println("shutting down")
	err = srv.Close()
	if *persist != "" {
		n, serr := store.SaveFile(*persist)
		if serr != nil && err == nil {
			err = serr
		} else if serr == nil {
			fmt.Printf("saved %d records to %s\n", n, *persist)
		}
	}
	if cerr := store.Close(); cerr != nil && err == nil {
		err = cerr
	}
	return err
}

// waitForSignal blocks until SIGINT/SIGTERM. Tests replace it to drive the
// binary's full lifecycle without signals.
var waitForSignal = func() {
	ch := make(chan os.Signal, 1)
	signal.Notify(ch, os.Interrupt, syscall.SIGTERM)
	<-ch
}
