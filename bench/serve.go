package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"io"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"slices"
	"sync"
	"time"

	"satbelim/internal/satb"
	"satbelim/internal/satbd"
	"satbelim/internal/vm"
)

const (
	popularPrograms = 40 // requested again and again: cache hits after warm-up
	missPrograms    = 40 // compiled under a fresh name each time: always a miss
	serveGCTrigger  = 1000
)

// slot is one request's kind. A client draws its requests from a deck of
// twenty slots — /run : /compile : /analyze = 2 : 1 : 1, one in five of
// each a miss — reshuffled every time it runs out. Every twenty requests
// therefore carry the same mix in an order the seed decides, and a round
// (a whole number of decks per client) is the same work every time.
type slot struct {
	endpoint string
	miss     bool
}

func newDeck() []slot {
	var deck []slot
	for _, e := range []struct {
		endpoint     string
		hits, misses int
	}{{"run", 8, 2}, {"compile", 4, 1}, {"analyze", 4, 1}} {
		for i := 0; i < e.hits+e.misses; i++ {
			deck = append(deck, slot{e.endpoint, i < e.misses})
		}
	}
	return deck
}

// servePrograms are built the way the daemon builds them (its default
// limit, mode and tier-0 budgets), so set-up's fingerprints are what a
// correct response must carry.
func servePrograms() []*program {
	var ps []*program
	for _, s := range generatedSources(0, popularPrograms+missPrograms) {
		o := modeA(100)
		o.Analysis.MaxBlockVisits = 200000
		o.Analysis.MaxStateSize = 1 << 20
		o.Runtime = vm.Config{Engine: vm.EngineFused, Barrier: satb.ModeConditional, GC: vm.GCSATB, TriggerEveryAllocs: serveGCTrigger}
		ps = append(ps, &program{source: s, name: s.key, opts: o})
	}
	return ps
}

// reqSample is one request as the client and the server saw it.
type reqSample struct {
	endpoint            string
	hit                 bool
	clientMS            float64
	queueWaitMS, servMS float64
}

// response is the part of the daemon's document the client checks.
type response struct {
	Satbd struct {
		Request struct {
			Outcome     string `json:"outcome"`
			QueueWaitNS int64  `json:"queue_wait_ns"`
			ElapsedNS   int64  `json:"elapsed_ns"`
		} `json:"request"`
	} `json:"satbd"`
	Compile *struct {
		CacheHit         bool `json:"cache_hit"`
		BytecodeBytes    int  `json:"bytecode_bytes"`
		CompiledCodeSize int  `json:"compiled_code_size"`
	} `json:"compile"`
	Run *struct {
		Output []int64 `json:"output"`
		Steps  int64   `json:"steps"`
	} `json:"run"`
	Methods []struct{} `json:"methods"`
}

type server struct {
	srv    *satbd.Server
	ts     *httptest.Server
	client *http.Client
	progs  []*program
	// sources holds each program's source as a JSON string, so a request
	// body is assembled without re-escaping kilobytes of source.
	sources [][]byte
	clients []*client
	seed    int64
}

// client is one closed-loop caller's deterministic request stream.
type client struct {
	rng    *rand.Rand
	deck   []slot
	next   int // index of the next slot; len(deck) means reshuffle
	serial int // misses sent so far, for their fresh names
}

func (c *client) draw() slot {
	if c.next == len(c.deck) {
		c.rng.Shuffle(len(c.deck), func(i, j int) { c.deck[i], c.deck[j] = c.deck[j], c.deck[i] })
		c.next = 0
	}
	c.next++
	return c.deck[c.next-1]
}

// startServe starts the daemon in-process behind a real loopback HTTP
// listener and returns the closed-loop instance: nproc clients, each
// sending its next request when the previous one has been answered.
func startServe(w *workload, ps []*program, seed int64) (*instance, error) {
	s := &server{
		srv:    satbd.New(satbd.Config{Workers: nproc}),
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: nproc}, Timeout: 30 * time.Second},
		progs:  ps, seed: seed,
	}
	s.ts = httptest.NewServer(s.srv.Handler())
	for _, p := range ps {
		src, err := json.Marshal(p.src)
		if err != nil {
			return nil, err
		}
		s.sources = append(s.sources, src)
	}
	for c := 0; c < nproc; c++ {
		deck := newDeck()
		s.clients = append(s.clients, &client{rng: rand.New(rand.NewSource(seed*31 + int64(c))), deck: deck, next: len(deck)})
	}
	perClient := w.opsPerRound / nproc
	return &instance{
		programs: ps,
		round: func(tr *tracer) roundResult {
			parts := make([]roundResult, nproc)
			var wg sync.WaitGroup
			for c := 0; c < nproc; c++ {
				wg.Add(1)
				go func(c int) {
					defer wg.Done()
					parts[c] = s.clientRound(c, perClient, tr)
				}(c)
			}
			wg.Wait()
			var r roundResult
			for _, p := range parts {
				r.opsMS = append(r.opsMS, p.opsMS...)
				r.reqs = append(r.reqs, p.reqs...)
				r.work += p.work
				r.failed += p.failed
			}
			return r
		},
		layer: s.counters,
		close: func() {
			s.ts.Close()
			s.client.CloseIdleConnections()
		},
	}, nil
}

// clientRound sends n requests of client c's deterministic stream. A
// traced round first measures the HTTP+JSON floor with three /healthz
// calls, which are not ops.
func (s *server) clientRound(c, n int, tr *tracer) roundResult {
	var r roundResult
	cl := s.clients[c]
	if tr != nil {
		for i := 0; i < 3; i++ {
			t := time.Now()
			resp, err := s.client.Get(s.ts.URL + "/healthz")
			if err == nil {
				io.Copy(io.Discard, resp.Body)
				resp.Body.Close()
				r.reqs = append(r.reqs, reqSample{endpoint: "healthz", clientMS: ms(time.Since(t))})
			}
		}
	}
	for i := 0; i < n; i++ {
		sl := cl.draw()
		endpoint := sl.endpoint
		var pi int
		var name string
		if sl.miss {
			pi = popularPrograms + cl.rng.Intn(missPrograms)
			cl.serial++
			name = fmt.Sprintf("miss_s%d_c%d_%d", s.seed, c, cl.serial)
		} else {
			pi = cl.rng.Intn(popularPrograms)
			name = s.progs[pi].name
		}
		body := fmt.Appendf(nil, `{"name":%q,"source":%s,"gc":"satb","gc_trigger":%d}`, name, s.sources[pi], serveGCTrigger)

		id := tr.start("satbd."+endpoint, -1)
		t := time.Now()
		doc, err := s.post(endpoint, body)
		d := ms(time.Since(t))
		tr.end(id)

		r.opsMS = append(r.opsMS, d)
		r.work++
		if !s.progs[pi].checkResponse(endpoint, doc, err) {
			r.failed++
		} else if tr != nil {
			r.reqs = append(r.reqs, reqSample{
				endpoint: endpoint, hit: doc.Compile.CacheHit, clientMS: d,
				queueWaitMS: float64(doc.Satbd.Request.QueueWaitNS) / 1e6,
				servMS:      float64(doc.Satbd.Request.ElapsedNS) / 1e6,
			})
		}
	}
	return r
}

func (s *server) post(endpoint string, body []byte) (*response, error) {
	resp, err := s.client.Post(s.ts.URL+"/"+endpoint, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	data, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d", resp.StatusCode)
	}
	var doc response
	if err := json.Unmarshal(data, &doc); err != nil {
		return nil, err
	}
	return &doc, nil
}

// checkResponse accepts only an undegraded 200 that carries set-up's
// build facts and, for /run, set-up's output: degraded, shed, timeout
// and every non-200 count as failed.
func (p *program) checkResponse(endpoint string, doc *response, err error) bool {
	if err != nil || p.bad || doc.Satbd.Request.Outcome != satbd.OutcomeOK || doc.Compile == nil {
		return false
	}
	if doc.Compile.BytecodeBytes != p.print.bytecodeBytes || doc.Compile.CompiledCodeSize != p.print.codeSize {
		return false
	}
	switch endpoint {
	case "run":
		return doc.Run != nil && doc.Run.Steps == p.steps && slices.Equal(doc.Run.Output, p.output)
	case "analyze":
		return len(doc.Methods) == len(p.build.Report.Methods)
	}
	return true
}

// counters are the daemon's and its cache's counters since the server
// started, warm-up rounds included.
func (s *server) counters() map[string]float64 {
	st, cs := s.srv.Stats(), s.srv.Cache().Stats()
	return map[string]float64{
		"pipeline.cache_hits":      float64(cs.Hits),
		"pipeline.cache_misses":    float64(cs.Misses),
		"pipeline.cache_coalesced": float64(cs.Coalesced),
		"pipeline.cache_evictions": float64(cs.Evictions),
		"satbd.requests":           float64(st.Requests),
		"satbd.shed":               float64(st.Shed),
		"satbd.degraded":           float64(st.Degraded),
		"satbd.timeouts":           float64(st.Timeouts),
		"satbd.queued_peak":        float64(st.QueuedPeak),
	}
}
