// Command satbd runs the compile-and-run daemon (serve mode) or its
// load client (-loadtest).
//
// Serve:
//
//	satbd -addr 127.0.0.1:8344 [-workers N] [-queue N] [-obs]
//
// Load test (boots an in-process daemon unless -url points elsewhere):
//
//	satbd -loadtest -n 200 -c 8 [-verify] [-deadline-ms N] [-json out.json]
//
// The load test exits non-zero if any response violated the daemon's
// contract: schema-invalid body, outcome/status mismatch, unflagged
// degradation, silently-wrong output, or an unreachable daemon.
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"net"
	"net/http"
	"os"
	"os/signal"
	"sort"
	"syscall"
	"time"

	"satbelim/internal/cli"
	"satbelim/internal/core"
	"satbelim/internal/obs"
	"satbelim/internal/report"
	"satbelim/internal/satbd"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintf(os.Stderr, "satbd: %v\n", err)
		os.Exit(1)
	}
}

func run() error {
	var (
		addr        = flag.String("addr", "127.0.0.1:8344", "listen address (serve mode)")
		workers     = flag.Int("workers", 0, "concurrent request slots (0 = NumCPU)")
		queue       = flag.Int("queue", 0, "admission queue depth beyond the slots (0 = 4x workers)")
		deadline    = flag.Duration("deadline", 2*time.Second, "default per-request deadline")
		maxDeadline = flag.Duration("max-deadline", 10*time.Second, "ceiling on client-requested deadlines")
		inline      = flag.Int("inline", 100, "inline limit for daemon compiles")
		mode        = flag.String("mode", "A", "analysis mode: B, F, or A")
		cacheSize   = flag.Int("cache-entries", 512, "build cache capacity")
		visits      = flag.Int("max-block-visits", 0, "tier-0 analysis visit budget (0 = default)")
		obsOn       = flag.Bool("obs", false, "enable the observability collector (/metrics spans, /trace)")

		loadtest = flag.Bool("loadtest", false, "run the load client instead of serving")
		n        = flag.Int("n", 200, "loadtest: number of requests")
		c        = flag.Int("c", 8, "loadtest: concurrency")
		seed     = flag.Int64("seed", 1, "loadtest: base progen seed")
		reqDL    = flag.Int64("deadline-ms", 0, "loadtest: per-request deadline_ms (0 = server default)")
		verify   = flag.Bool("verify", true, "loadtest: re-run /run responses locally and compare outputs")
		url      = flag.String("url", "", "loadtest: target an already-running daemon instead of booting one")
		jsonOut  = flag.String("json", "", "loadtest: write the load report as versioned JSON")
	)
	flag.Parse()

	m, err := core.ParseMode(*mode)
	if err != nil {
		return err
	}
	if *obsOn {
		obs.Enable()
	}
	cfg := satbd.Config{
		Workers:         *workers,
		QueueDepth:      *queue,
		DefaultDeadline: *deadline,
		MaxDeadline:     *maxDeadline,
		InlineLimit:     *inline,
		Mode:            m,
		CacheEntries:    *cacheSize,
		MaxBlockVisits:  *visits,
	}

	if *loadtest {
		return runLoadtest(cfg, satbd.LoadConfig{
			BaseURL:       *url,
			Programs:      *n,
			Concurrency:   *c,
			Seed:          *seed,
			DeadlineMS:    *reqDL,
			VerifyOutputs: *verify,
		}, *jsonOut)
	}
	return serve(*addr, cfg)
}

// serve runs the daemon until SIGINT/SIGTERM, then drains connections.
func serve(addr string, cfg satbd.Config) error {
	s := satbd.New(cfg)
	srv := &http.Server{Addr: addr, Handler: s.Handler()}

	errc := make(chan error, 1)
	go func() {
		fmt.Fprintf(os.Stderr, "satbd: listening on %s (workers=%d queue=%d)\n",
			addr, s.Stats().Workers, s.Stats().QueueDepth)
		errc <- srv.ListenAndServe()
	}()

	stop := make(chan os.Signal, 1)
	signal.Notify(stop, os.Interrupt, syscall.SIGTERM)
	select {
	case err := <-errc:
		return err
	case sig := <-stop:
		fmt.Fprintf(os.Stderr, "satbd: %v, draining\n", sig)
		ctx, cancel := context.WithTimeout(context.Background(), 15*time.Second)
		defer cancel()
		if err := srv.Shutdown(ctx); err != nil {
			return err
		}
		st := s.Stats()
		fmt.Fprintf(os.Stderr, "satbd: served %d requests (%d ok, %d degraded, %d shed, %d timeouts, %d errors, %d panics)\n",
			st.Requests, st.OK, st.Degraded, st.Shed, st.Timeouts, st.Errors, st.Panics)
		return nil
	}
}

// runLoadtest drives a load run, printing the outcome table and writing
// the JSON document. With no -url it boots an in-process daemon on a
// loopback port so the whole loop is one command.
func runLoadtest(cfg satbd.Config, lc satbd.LoadConfig, jsonOut string) error {
	var stats func() report.SatbdStats
	if lc.BaseURL == "" {
		ln, err := net.Listen("tcp", "127.0.0.1:0")
		if err != nil {
			return err
		}
		s := satbd.New(cfg)
		stats = s.Stats
		srv := &http.Server{Handler: s.Handler()}
		go srv.Serve(ln)
		defer srv.Close()
		lc.BaseURL = "http://" + ln.Addr().String()
		fmt.Fprintf(os.Stderr, "satbd: in-process daemon on %s\n", lc.BaseURL)
	}

	ctx, cancel := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer cancel()
	load, err := satbd.RunLoad(ctx, lc)
	if err != nil && !errors.Is(err, context.Canceled) {
		return err
	}

	fmt.Printf("satbd loadtest: %d/%d requests in %v\n",
		load.Sent, load.Programs, time.Duration(load.ElapsedNS).Round(time.Millisecond))
	outcomes := make([]string, 0, len(load.ByOutcome))
	for k := range load.ByOutcome {
		outcomes = append(outcomes, k)
	}
	sort.Strings(outcomes)
	for _, k := range outcomes {
		if lat, ok := load.Latency[k]; ok {
			fmt.Printf("  %-10s %6d   p50 %-9v p95 %-9v p99 %-9v max %v\n",
				k, load.ByOutcome[k],
				time.Duration(lat.P50NS).Round(time.Microsecond),
				time.Duration(lat.P95NS).Round(time.Microsecond),
				time.Duration(lat.P99NS).Round(time.Microsecond),
				time.Duration(lat.MaxNS).Round(time.Microsecond))
			continue
		}
		fmt.Printf("  %-10s %6d\n", k, load.ByOutcome[k])
	}
	if load.OutputsVerified > 0 {
		fmt.Printf("  outputs verified against local baseline: %d\n", load.OutputsVerified)
	}

	doc := report.NewDocument("satbd")
	doc.Satbd = &report.Satbd{Load: load}
	if stats != nil {
		st := stats()
		doc.Satbd.Stats = &st
	}
	if jsonOut != "" {
		if err := cli.WriteDocument(jsonOut, doc); err != nil {
			return err
		}
		fmt.Fprintf(os.Stderr, "satbd: wrote %s\n", jsonOut)
	}

	if len(load.Invalid) > 0 {
		for _, v := range load.Invalid {
			fmt.Fprintf(os.Stderr, "VIOLATION: %s\n", v)
		}
		return fmt.Errorf("%d contract violations", len(load.Invalid))
	}
	fmt.Println("  contract: every response schema-valid, degradations flagged, no silent wrong answers")
	return nil
}
