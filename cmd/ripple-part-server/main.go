// Command ripple-part-server is one standalone part-server process: it
// serves Ripple's store and mq SPIs over the framed-TCP transport in
// internal/netstore, so an analytics process (the engine plus a netstore
// client) can run against a fleet of these across a real network boundary.
//
// Usage:
//
//	ripple-part-server -addr 127.0.0.1:7070
//
// The bound address is printed on stdout as "listening <addr>" once the
// listener is up — harnesses that pass -addr 127.0.0.1:0 parse it to learn
// the kernel-assigned port. SIGINT/SIGTERM shut down gracefully: in-flight
// requests finish executing but are not answered (to clients a stopping
// server is a dead one, so they retry and fail over), the span log (if
// -trace is set) is dumped, and the process exits 0.
//
// Observability flags mirror ripple-bench:
//
//	-metrics-addr :9091   serve this server's collector (per-endpoint RPC
//	                      service-time histograms, call counters) in
//	                      Prometheus text format at /metrics
//	-trace spans.jsonl    dump server-side RPC spans on shutdown ('-' for
//	                      stdout); spans carry the trace IDs clients stamp
//	                      on frames, so they join the engine's causal chains.
//	                      The dump ends with one "stats" span holding the
//	                      final metrics snapshot. The span ring itself is
//	                      always on — fleet collectors drain it live over
//	                      the admin trace-dump op — so -trace only controls
//	                      the shutdown file.
//	-trace-cap 16384      span ring-buffer capacity
//	-log-level info       structured logs (slog) to stderr: off, error,
//	                      warn, info, or debug
package main

import (
	"flag"
	"fmt"
	"log"
	"log/slog"
	"net"
	"net/http"
	"os"
	"os/signal"
	"syscall"

	"ripple/internal/httpx"
	"ripple/internal/metrics"
	"ripple/internal/netstore"
	"ripple/internal/trace"
)

func main() {
	var (
		addr        = flag.String("addr", "127.0.0.1:0", "TCP address to serve the part-server protocol on")
		metricsAddr = flag.String("metrics-addr", "", "serve Prometheus-format metrics on this address (e.g. :9091)")
		traceFile   = flag.String("trace", "", "write the server span log to this file on shutdown ('-' for stdout)")
		traceCap    = flag.Int("trace-cap", trace.DefaultCapacity, "span ring-buffer capacity")
		logLevel    = flag.String("log-level", "off", "structured log level: off, error, warn, info, debug")
	)
	flag.Parse()

	var logger *slog.Logger
	if *logLevel != "off" {
		var lvl slog.Level
		if err := lvl.UnmarshalText([]byte(*logLevel)); err != nil {
			log.Fatalf("unknown -log-level %q (want off, error, warn, info, debug)", *logLevel)
		}
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: lvl}))
	} else {
		logger = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: slog.LevelError}))
	}

	collector := &metrics.Collector{}
	// The tracer is always on: the opTraceDump admin op serves the ring to
	// fleet collectors whether or not a -trace file was requested, and ping
	// responses carry the tracer's clock for offset estimation.
	tracer := trace.New(*traceCap)

	srv := netstore.NewServer(
		netstore.WithServerMetrics(collector),
		netstore.WithServerTracer(tracer),
	)

	ln, err := net.Listen("tcp", *addr)
	if err != nil {
		log.Fatalf("listen %s: %v", *addr, err)
	}
	// The harness contract: one parseable line with the bound address.
	fmt.Printf("listening %s\n", ln.Addr().String())
	logger.Info("part-server up", "addr", ln.Addr().String(), "boot_id", srv.BootID())

	var metricsSrv *httpx.Server
	if *metricsAddr != "" {
		mux := http.NewServeMux()
		mux.Handle("/metrics", metrics.HandlerTracer(collector, tracer))
		// Bind synchronously: a bad or occupied -metrics-addr kills the
		// process now, not after it has committed to serving parts.
		metricsSrv, err = httpx.Serve(*metricsAddr, mux)
		if err != nil {
			log.Fatalf("metrics endpoint: %v", err)
		}
	}

	sigs := make(chan os.Signal, 1)
	signal.Notify(sigs, os.Interrupt, syscall.SIGTERM)
	done := make(chan error, 1)
	go func() { done <- srv.Serve(ln) }()

	select {
	case sig := <-sigs:
		// Graceful drain: Close finishes in-flight requests before the flush
		// below, so the trace file never loses the tail of spans.
		logger.Info("shutting down", "signal", sig.String())
		if err := srv.Close(); err != nil {
			logger.Error("close", "err", err)
		}
		<-done
	case err := <-done:
		if err != nil {
			log.Fatalf("serve: %v", err)
		}
	}
	if metricsSrv != nil {
		// Drain scrapes in flight, then release the port before exiting.
		if err := metricsSrv.Shutdown(nil); err != nil {
			logger.Error("metrics shutdown", "err", err)
		}
	}

	if *traceFile != "" {
		// Final flush: the drained ring plus one stats span carrying the
		// metrics snapshot, so a dead server's counters survive in its dump.
		metrics.RecordStatsSpan(tracer, collector)
		out := os.Stdout
		if *traceFile != "-" {
			f, err := os.Create(*traceFile)
			if err != nil {
				log.Fatalf("trace dump: %v", err)
			}
			defer f.Close()
			out = f
		}
		if err := tracer.WriteJSONL(out); err != nil {
			log.Fatalf("trace dump: %v", err)
		}
	}
}
