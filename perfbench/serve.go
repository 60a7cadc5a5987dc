package main

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"
	"io"
	"math"
	"math/rand"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"repro/internal/audit"
	"repro/internal/core"
	"repro/internal/oracle"
	"repro/internal/scenario"
	"repro/internal/serve"
	"repro/internal/workload"
)

// The serve workload's open-loop load. The schedule of every request is
// drawn from the seed before the first one is sent.
const (
	// nominalRate is the low nominal request rate latency is reported at,
	// about a quarter to a third of capacity on the reference container.
	// Below about 1000 req/s the idle CPUs' wake-up delays of a shared
	// virtual machine, which vary from minute to minute, dominate p99.
	nominalRate = 1000.0
	// window is the length of one nominal-rate phase: about 2000 requests.
	window = 2 * time.Second
	// latencyLimitMs is the p99 limit a ladder rate must meet. It sits
	// above the few-millisecond scheduling stalls of a shared 2-CPU
	// machine, so a rate misses it when the backlog grows.
	latencyLimitMs = 50.0
	// nominalLateMs is the p99 generator lateness beyond which a
	// nominal-rate phase is invalid and not recorded: the generator, in
	// the same process as the server, was held up, which on a shared
	// machine means CPU taken from outside. About twice the lateness of a
	// quiet phase.
	nominalLateMs = 2.5
	// rungLateMs is the same limit for a ladder rate, where a busy
	// process delays the generator more.
	rungLateMs = 10.0
	// abandonAfter drops a request still unsent this long after it was
	// due; it counts as failed. Only overloaded ladder rates reach it.
	abandonAfter = time.Second
	// checkpointEvery is gmserve's default checkpoint interval.
	checkpointEvery = 64
	// arrivalLead is how many slots past the current tick count a
	// submitted job's submit slot lies, so that requests overtaking each
	// other on different connections never submit into the past.
	arrivalLead = 8
	// leadIn is how many submissions open every schedule before the first
	// tick or read. A tick that overtook the first submission would find
	// nothing known yet and drain the run, closing it to submissions.
	leadIn = 16
	// rungAttempts is how many times a ladder rate may run before it
	// counts as missing the limit.
	rungAttempts = 3
	// recoveryCopies is how many copies of the crash image are recovered.
	recoveryCopies = 3
)

// ladder is the fixed set of rates, in requests per second, that brackets
// the service's capacity on the reference container (2 CPUs), 10% apart.
var ladder = []float64{2000, 2200, 2420, 2660, 2930, 3220, 3540, 3900, 4290, 4720, 5190, 5710, 6280}

type reqKind int

const (
	kindSubmit reqKind = iota
	kindRetry          // repeats an earlier submission and its Idempotency-Key
	kindTick
	kindStatus
)

var kindNames = [...]string{"submit", "retry", "tick", "status"}

// plannedReq is one request of the schedule.
type plannedReq struct {
	at   time.Duration // intended send time, from the start of the phase
	kind reqKind
	key  string // Idempotency-Key of submissions
	body []byte // POST body; nil for GET /v1/status
	job  workload.Job
	to   int // tick target
}

// outcome is what happened to one request.
type outcome struct {
	sent, done time.Time
	err        error // transport error, non-2xx status or bad body
	status     int
	resp       []byte
	abandoned  bool
}

// buildSchedule draws a Poisson open-loop schedule at rate for duration:
// about a tenth GET /v1/status, one tick in eight, the rest job
// submissions (mostly batch, some web). A tenth of the submissions carry
// an Idempotency-Key, and about one in fifty requests is a client retry
// that repeats one of them. The first leadIn requests are
// submissions, so the run never drains before work arrives.
func buildSchedule(rng *rand.Rand, rate float64, duration time.Duration, tag string) []plannedReq {
	var out []plannedReq
	var keyed []int // submissions that carry an Idempotency-Key
	ticks, id := 0, 0
	at := time.Duration(0)
	for at < duration {
		var r plannedReq
		r.at = at
		u := rng.Float64()
		switch {
		case len(out) < leadIn || u >= 0.225:
			r.kind = kindSubmit
			if u < 0.24 && len(keyed) > 4 {
				// A client retry of a keyed submission sent well before,
				// so that the two rarely race on different connections.
				prev := out[keyed[rng.Intn(len(keyed)-4)]]
				r.kind, r.key, r.body, r.job = kindRetry, prev.key, prev.body, prev.job
				break
			}
			r.job = drawJob(rng, id, ticks+arrivalLead)
			id++
			if rng.Float64() < 0.1 {
				r.key = fmt.Sprintf("%s-%d", tag, r.job.ID)
				keyed = append(keyed, len(out))
			}
			r.body, _ = json.Marshal(serve.SubmitRequest{Job: r.job}) // a plain struct always encodes
		case u < 0.1:
			r.kind = kindStatus
		default:
			r.kind = kindTick
			r.to = ticks
			ticks++
			r.body, _ = json.Marshal(serve.TickRequest{To: r.to})
		}
		out = append(out, r)
		at += time.Duration(rng.ExpFloat64() / rate * float64(time.Second))
	}
	return out
}

// trimToTail drops requests from the end of a schedule until the service
// will have journaled tail entries since its last automatic checkpoint
// (the init, every submission that is not a retry, every tick), so that
// recovering the crash image always replays the same number of entries:
// half a checkpoint interval, the average.
func trimToTail(sched []plannedReq, tail int) []plannedReq {
	journaled := 1
	for _, r := range sched {
		if r.kind == kindSubmit || r.kind == kindTick {
			journaled++
		}
	}
	for len(sched) > leadIn && journaled%checkpointEvery != tail {
		if k := sched[len(sched)-1].kind; k == kindSubmit || k == kindTick {
			journaled--
		}
		sched = sched[:len(sched)-1]
	}
	return sched
}

// drawJob draws one job arriving at slot submit: 85% deferrable batch with
// up to a day of slack, 15% web.
func drawJob(rng *rand.Rand, id, submit int) workload.Job {
	j := workload.Job{ID: id, Submit: submit, CPU: 0.5 + 1.5*rng.Float64(), RAMGB: 1 + 3*rng.Float64()}
	if rng.Float64() < 0.15 {
		j.Class = workload.Web
		j.Duration = 1 + rng.Intn(3)
		j.Deadline = submit + j.Duration
		return j
	}
	j.Class = workload.Batch
	j.Duration = 1 + rng.Intn(6)
	j.Deadline = submit + j.Duration + rng.Intn(25)
	return j
}

// liveServer is an in-process gmserve: serve.Open, serve.NewServer and its
// Handler on a loopback listener.
type liveServer struct {
	dir    string
	runner *serve.Runner
	srv    *serve.Server
	http   *http.Server
	url    string
	client *http.Client
	served chan error
}

// initRequest is what every serve phase initializes the scheduler with:
// the default scenario, no trace; all work arrives over the wire.
func initRequest(seed int64) serve.InitRequest {
	sc := scenario.Default()
	sc.Seed = seed
	return serve.InitRequest{Scenario: sc}
}

// startServer opens an empty state directory and initializes the
// scheduler, returning the time both took.
func startServer(dir string, conns int, init serve.InitRequest) (*liveServer, time.Duration, error) {
	if err := os.RemoveAll(dir); err != nil {
		return nil, 0, err
	}
	t0 := time.Now()
	r, err := serve.Open(dir, serve.Options{Fsync: true, CheckpointEvery: checkpointEvery})
	if err != nil {
		return nil, 0, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		_ = r.Close()
		return nil, 0, err
	}
	s := &liveServer{
		dir:    dir,
		runner: r,
		srv:    serve.NewServer(r, serve.ServerOptions{}),
		url:    "http://" + ln.Addr().String(),
		client: &http.Client{Transport: &http.Transport{
			MaxConnsPerHost:     conns,
			MaxIdleConnsPerHost: conns,
		}},
		served: make(chan error, 1),
	}
	s.http = &http.Server{Handler: s.srv.Handler()}
	go func() { s.served <- s.http.Serve(ln) }()
	body, _ := json.Marshal(init) // a plain struct always encodes
	if _, err := s.post("/v1/init", body, ""); err != nil {
		_ = s.stop()
		return nil, 0, fmt.Errorf("init: %w", err)
	}
	return s, time.Since(t0), nil
}

func (s *liveServer) post(path string, body []byte, key string) ([]byte, error) {
	b, _, err := s.request(http.MethodPost, path, body, key)
	return b, err
}

func (s *liveServer) get(path string) ([]byte, error) {
	b, _, err := s.request(http.MethodGet, path, nil, "")
	return b, err
}

// request sends one request and returns the body and status code; a
// non-2xx status is an error.
func (s *liveServer) request(method, path string, body []byte, key string) ([]byte, int, error) {
	req, err := http.NewRequest(method, s.url+path, bytes.NewReader(body))
	if err != nil {
		return nil, 0, err
	}
	if body != nil {
		req.Header.Set("Content-Type", "application/json")
	}
	if key != "" {
		req.Header.Set("Idempotency-Key", key)
	}
	resp, err := s.client.Do(req)
	if err != nil {
		return nil, 0, err
	}
	defer resp.Body.Close()
	b, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, resp.StatusCode, err
	}
	if resp.StatusCode/100 != 2 {
		return b, resp.StatusCode, fmt.Errorf("%s %s: %d %s", method, path, resp.StatusCode, strings.TrimSpace(string(b)))
	}
	return b, resp.StatusCode, nil
}

// stop closes the listener, drains the apply queue and closes the runner.
func (s *liveServer) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := s.http.Shutdown(ctx)
	if serr := <-s.served; serr != http.ErrServerClosed && err == nil {
		err = serr
	}
	s.client.CloseIdleConnections()
	if serr := s.srv.Shutdown(ctx); serr != nil && err == nil {
		err = serr
	}
	return err
}

// send issues one planned request.
func (s *liveServer) send(r plannedReq) outcome {
	var o outcome
	o.sent = time.Now()
	switch r.kind {
	case kindStatus:
		o.resp, o.status, o.err = s.request(http.MethodGet, "/v1/status", nil, "")
	case kindTick:
		o.resp, o.status, o.err = s.request(http.MethodPost, "/v1/tick", r.body, "")
	default:
		o.resp, o.status, o.err = s.request(http.MethodPost, "/v1/jobs", r.body, r.key)
	}
	o.done = time.Now()
	return o
}

// loadResult is one open-loop phase.
type loadResult struct {
	start time.Time
	outs  []outcome
	late  []float64 // generator lateness per request, ms
	end   time.Time // last completion
}

// drive sends the schedule open-loop: a dispatcher marks each request due
// at its intended time, whatever happened to earlier ones, and at most
// conns workers, one connection each, send the due requests in order.
func drive(sched []plannedReq, conns int, send func(plannedReq) outcome) loadResult {
	res := loadResult{outs: make([]outcome, len(sched)), late: make([]float64, len(sched))}
	due := make(chan int, len(sched)) // sized to the number of sends: the dispatcher never blocks
	var wg sync.WaitGroup
	for w := 0; w < conns; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range due {
				if time.Since(res.start.Add(sched[i].at)) > abandonAfter {
					res.outs[i] = outcome{abandoned: true, err: fmt.Errorf("%s request abandoned: unsent %v after it was due", kindNames[sched[i].kind], abandonAfter)}
					continue
				}
				res.outs[i] = send(sched[i])
			}
		}()
	}
	res.start = time.Now()
	for i, r := range sched {
		if d := time.Until(res.start.Add(r.at)); d > 0 {
			time.Sleep(d)
		}
		res.late[i] = ms(time.Since(res.start.Add(r.at)))
		due <- i
	}
	close(due)
	wg.Wait()
	for _, o := range res.outs {
		if o.done.After(res.end) {
			res.end = o.done
		}
	}
	return res
}

// latencies returns each request's latency in ms from its intended send
// time (abandoned requests excluded), for the requests selected.
func (lr loadResult) latencies(sched []plannedReq, keep func(plannedReq) bool) []float64 {
	var out []float64
	for i, o := range lr.outs {
		if !o.abandoned && keep(sched[i]) {
			out = append(out, ms(o.done.Sub(lr.start.Add(sched[i].at))))
		}
	}
	return out
}

func anyReq(plannedReq) bool { return true }

// failures counts failed and abandoned requests.
func (lr loadResult) failures() int {
	n := 0
	for _, o := range lr.outs {
		if o.err != nil {
			n++
		}
	}
	return n
}

// accepted is one job the service admitted, in journal order.
type accepted struct {
	seq uint64
	job workload.Job
}

// admitted returns the jobs the service admitted (replayed retries
// excluded), checking every submission response.
func (lr loadResult) admitted(sched []plannedReq, t *tally) []accepted {
	var out []accepted
	for i, o := range lr.outs {
		r := sched[i]
		if o.err != nil || (r.kind != kindSubmit && r.kind != kindRetry) {
			continue
		}
		var resp struct {
			serve.SubmitResponse
			Replayed bool `json:"replayed"`
		}
		if err := json.Unmarshal(o.resp, &resp); err != nil || resp.JobID != r.job.ID {
			t.op(fmt.Errorf("submission of job %d: bad response %q", r.job.ID, o.resp))
			continue
		}
		if !resp.Replayed {
			out = append(out, accepted{seq: resp.Seq, job: r.job})
		}
	}
	return out
}

// batchConfig is the batch simulation over the admitted jobs that the
// live service's Result must equal: the init scenario compiled with the
// admitted jobs as its trace, in submit-slot order and, within a slot, in
// journal order — the order the live scheduler admitted them.
func batchConfig(init serve.InitRequest, acc []accepted) (core.Config, error) {
	cfg, err := init.Scenario.Compile()
	if err != nil {
		return cfg, err
	}
	sort.Slice(acc, func(a, b int) bool {
		if acc[a].job.Submit != acc[b].job.Submit {
			return acc[a].job.Submit < acc[b].job.Submit
		}
		return acc[a].seq < acc[b].seq
	})
	cfg.Trace = make(workload.Trace, len(acc))
	for i, a := range acc {
		cfg.Trace[i] = a.job
	}
	return cfg, nil
}

// copyDir copies the regular files of src into a fresh dst.
func copyDir(src, dst string) error {
	if err := os.RemoveAll(dst); err != nil {
		return err
	}
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		b, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), b, 0o644); err != nil {
			return err
		}
	}
	return nil
}

// nominalPhase is the measured phase at the nominal rate plus everything
// checked about it.
type nominalPhase struct {
	sched    []plannedReq
	load     loadResult
	setup    time.Duration
	recovery []float64
	cfg      core.Config // batch equivalent of the live run
	image    string      // crash image directory (first copy)
}

// runNominal runs nominal phase k on a fresh server, takes a crash image
// at the end of the load, finalizes, and checks the live Result and audit
// trace against the batch run and the crash image's recovery.
func runNominal(opt options, k int, base string, conns int, duration time.Duration, t *tally) (nominalPhase, error) {
	var p nominalPhase
	rng := rand.New(rand.NewSource(opt.seed*100 + int64(k)))
	p.sched = trimToTail(buildSchedule(rng, nominalRate, duration, fmt.Sprintf("s%d-%d", opt.seed, k)), checkpointEvery/2)
	init := initRequest(opt.seed)
	base = filepath.Join(base, fmt.Sprintf("nominal%d", k))
	s, setup, err := startServer(filepath.Join(base, "state"), conns, init)
	t.op(err)
	if err != nil {
		return p, err
	}
	defer func() { _ = s.stop() }()
	p.setup = setup
	p.load = drive(p.sched, conns, s.send)
	for _, o := range p.load.outs {
		t.op(o.err)
	}

	// Crash image: the state directory as it stands at the end of the
	// load, before any shutdown, with the live audit hash at copy time.
	shaBody, err := s.get("/v1/trace/sha256")
	t.op(err)
	if err != nil {
		return p, err
	}
	var live struct {
		SHA256 string `json:"sha256"`
	}
	if err := json.Unmarshal(shaBody, &live); err != nil {
		return p, fmt.Errorf("trace sha: %w", err)
	}
	p.image = filepath.Join(base, "image0")
	for i := 0; i < recoveryCopies; i++ {
		if err := copyDir(s.dir, filepath.Join(base, fmt.Sprintf("image%d", i))); err != nil {
			return p, err
		}
	}

	// The live run finalized must equal a batch run over what it admitted.
	resBody, err := s.post("/v1/finalize", nil, "")
	t.op(err)
	if err != nil {
		return p, err
	}
	acc := p.load.admitted(p.sched, t)
	p.cfg, err = batchConfig(init, acc)
	if err != nil {
		return p, err
	}
	h := sha256.New()
	bcfg := p.cfg
	bcfg.Observer = audit.NewJSONL(h)
	batch, err := core.Run(bcfg)
	t.op(err)
	if err != nil {
		return p, fmt.Errorf("batch run: %w", err)
	}
	t.check(jsonEqual(resBody, batch), "serve: /v1/finalize Result differs from the batch run over the %d admitted jobs", len(acc))
	finalBody, err := s.get("/v1/trace/sha256")
	t.op(err)
	if err == nil {
		var final struct {
			SHA256 string `json:"sha256"`
		}
		err := json.Unmarshal(finalBody, &final)
		t.check(err == nil && final.SHA256 == fmt.Sprintf("%x", h.Sum(nil)), "serve: finalized audit trace differs from the batch run's")
	}
	rep, err := oracle.Solve(p.cfg)
	t.op(err)
	if err == nil {
		t.check(batch.Energy.Brown.Wh() >= rep.Brown.Wh()-oracleTolWh,
			"serve: batch brown %v below oracle bound %v", batch.Energy.Brown, rep.Brown)
	}

	// Recovery: open each copy of the crash image; the recovered audit
	// trace must hash to what the live server reported at copy time.
	for i := 0; i < recoveryCopies; i++ {
		t0 := time.Now()
		r, err := serve.Open(filepath.Join(base, fmt.Sprintf("image%d", i)), serve.Options{Fsync: true, CheckpointEvery: checkpointEvery})
		d := time.Since(t0)
		t.op(err)
		if err != nil {
			return p, fmt.Errorf("recovering crash image: %w", err)
		}
		p.recovery = append(p.recovery, d.Seconds())
		sum, err := r.AuditSHA256()
		t.op(err)
		t.check(sum == live.SHA256, "serve: recovered audit sha256 %s differs from the live %s", sum, live.SHA256)
		t.op(r.Close())
	}
	return p, nil
}

// jsonEqual compares a JSON document with the JSON encoding of v.
func jsonEqual(raw []byte, v any) bool {
	want, err := json.Marshal(v)
	if err != nil {
		return false
	}
	var a, b any
	if json.Unmarshal(raw, &a) != nil || json.Unmarshal(want, &b) != nil {
		return false
	}
	return reflect.DeepEqual(a, b)
}

// rung is one ladder rate's outcome.
type rung struct {
	p99, tailP50 float64
	fails, n     int
	lateP99      float64
	valid, meets bool
	setup        time.Duration
}

// runRung loads a fresh server at one ladder rate.
func runRung(opt options, base string, conns int, rate float64, duration time.Duration, i int) (rung, error) {
	var rg rung
	rng := rand.New(rand.NewSource(opt.seed*1000 + int64(i) + 1))
	sched := buildSchedule(rng, rate, duration, fmt.Sprintf("r%d", i))
	s, setup, err := startServer(filepath.Join(base, fmt.Sprintf("rung%d", i)), conns, initRequest(opt.seed))
	if err != nil {
		return rg, err
	}
	rg.setup = setup
	lr := drive(sched, conns, s.send)
	if err := s.stop(); err != nil {
		return rg, err
	}
	lat := lr.latencies(sched, anyReq)
	rg.n = len(sched)
	rg.fails = lr.failures()
	rg.p99 = quantile(lat, 0.99)
	rg.tailP50 = median(lat[len(lat)*4/5:])
	rg.lateP99 = quantile(lr.late, 0.99)
	rg.valid = rg.lateP99 <= rungLateMs
	// A growing backlog shows as requests late in the phase waiting
	// longer than the limit from their intended send time.
	rg.meets = rg.fails == 0 && rg.p99 <= latencyLimitMs && rg.tailP50 <= latencyLimitMs
	return rg, os.RemoveAll(s.dir)
}

func runServe(opt options, t *tally, m map[string]metric) error {
	conns := runtime.NumCPU()
	base := filepath.Join(".bench_build", fmt.Sprintf("serve-%d", os.Getpid()))
	defer os.RemoveAll(base)
	if opt.trace {
		return traceServe(opt, base, conns, t, m)
	}

	// The nominal rate: several phases, each on a fresh server. A phase
	// whose generator fell behind is invalid and rerun, up to three times
	// as many phases as wanted; latencies pool the valid phases.
	phases := int(opt.seconds * 0.4 / window.Seconds())
	if phases < 1 {
		phases = 1
	}
	alloc := startAlloc()
	var valid, invalid []phaseStats
	for k := 0; len(valid) < phases && k < 3*phases; k++ {
		p, err := runNominal(opt, k, base, conns, window, t)
		if err != nil {
			return err
		}
		if err := os.RemoveAll(filepath.Join(base, fmt.Sprintf("nominal%d", k))); err != nil {
			return err
		}
		ps := summarize(p)
		if ps.late > nominalLateMs {
			fmt.Printf("serve: phase %d INVALID (generator p99 lateness %.2f ms > %v ms), not recorded\n", k, ps.late, nominalLateMs)
			invalid = append(invalid, ps)
			continue
		}
		valid = append(valid, ps)
	}
	allocMB := alloc.mb() / float64(len(valid)+len(invalid))
	if len(valid) < phases {
		// The machine never quietened down: fall back on the phases whose
		// generator was least late, and say so.
		sort.Slice(invalid, func(a, b int) bool { return invalid[a].late < invalid[b].late })
		fmt.Printf("serve: only %d valid phases; recording the %d least-late invalid ones\n", len(valid), phases-len(valid))
		valid = append(valid, invalid[:phases-len(valid)]...)
	}
	var setups, walls, tickRate, recovery, lat []float64
	admitted := 0
	for _, ps := range valid {
		setups = append(setups, ps.setup)
		walls = append(walls, ps.wall)
		tickRate = append(tickRate, ps.tickRate)
		recovery = append(recovery, ps.recovery)
		lat = append(lat, ps.lat...)
		admitted += ps.admitted
	}
	fmt.Printf("serve: %d phases of %v at %.0f req/s over %d connections: %d latency samples, %d admitted jobs, seed %d\n",
		len(valid), window, nominalRate, conns, len(lat), admitted, opt.seed)

	maxRate, rungSetups, err := runLadder(opt, base, conns, quantile(lat, 0.99))
	if err != nil {
		return err
	}
	setups = append(setups, rungSetups...)
	m["setup_s"] = metric{median(setups), "s"}
	m["wall_s"] = metric{median(walls), "s"}
	m["slots_per_s"] = metric{median(tickRate), "1/s"}
	m["req_p50_ms"] = metric{quantile(lat, 0.50), "ms"}
	m["req_p99_ms"] = metric{quantile(lat, 0.99), "ms"}
	m["max_rate_rps"] = metric{maxRate, "1/s"}
	m["recovery_s"] = metric{median(recovery), "s"}
	m["alloc_mb"] = metric{allocMB, "MB"}
	return nil
}

// phaseStats summarizes one nominal-rate phase.
type phaseStats struct {
	setup, wall, late, tickRate, recovery float64
	lat                                   []float64 // ms from intended send time
	admitted                              int
}

func summarize(p nominalPhase) phaseStats {
	var tickMs []float64
	for i, o := range p.load.outs {
		if p.sched[i].kind == kindTick && o.err == nil {
			tickMs = append(tickMs, ms(o.done.Sub(o.sent)))
		}
	}
	return phaseStats{
		setup:    p.setup.Seconds(),
		wall:     p.load.end.Sub(p.load.start).Seconds(),
		late:     quantile(p.load.late, 0.99),
		tickRate: 1000 / median(tickMs),
		recovery: median(p.recovery),
		lat:      p.load.latencies(p.sched, anyReq),
		admitted: len(p.cfg.Trace),
	}
}

// runLadder loads fresh servers at the ladder's rates and returns the
// highest rate whose p99 meets latencyLimitMs without a growing backlog.
// A rate that misses, or whose generator fell behind, runs again, up to
// rungAttempts times, since outside interference only ever slows a rate
// down; the ladder stops at the first rate that fails every attempt. Between that rate and
// the last one that met the limit (the nominal rate, with nominalP99, if
// none did) the rate at which p99 reaches the limit is interpolated
// linearly in log p99, so the figure moves smoothly rather than by whole
// ladder steps.
func runLadder(opt options, base string, conns int, nominalP99 float64) (float64, []float64, error) {
	rungDur := time.Duration(opt.seconds * 0.05 * float64(time.Second))
	var setups []float64
	passRate, passP99 := nominalRate, nominalP99
	for i, rate := range ladder {
		best := math.Inf(1)
		for attempt := 0; attempt < rungAttempts; attempt++ {
			rg, err := runRung(opt, base, conns, rate, rungDur, rungAttempts*i+attempt)
			if err != nil {
				return 0, nil, err
			}
			setups = append(setups, rg.setup.Seconds())
			status := "meets"
			switch {
			case !rg.valid:
				status = "INVALID (generator fell behind; not recorded)"
			case !rg.meets:
				status = "misses"
			}
			fmt.Printf("serve ladder %6.0f req/s: n=%d p99=%.2fms tail_p50=%.2fms fails=%d late_p99=%.2fms %s\n",
				rate, rg.n, rg.p99, rg.tailP50, rg.fails, rg.lateP99, status)
			if !rg.valid {
				continue
			}
			p99 := rg.p99
			if !rg.meets {
				// A rate that failed requests or built a backlog is
				// past the limit however its surviving requests fared.
				p99 = math.Max(p99, math.Max(rg.tailP50, 2*latencyLimitMs))
			}
			best = math.Min(best, p99)
			if rg.meets {
				break
			}
		}
		if best <= latencyLimitMs {
			passRate, passP99 = rate, best
			continue
		}
		if math.IsInf(best, 1) {
			return passRate, setups, nil
		}
		f := (math.Log(latencyLimitMs) - math.Log(passP99)) / (math.Log(best) - math.Log(passP99))
		return passRate + (rate-passRate)*math.Max(0, math.Min(1, f)), setups, nil
	}
	return passRate, setups, nil
}

// traceServe is the traced serve run: the nominal phase over HTTP, the
// same schedule replayed by direct Runner calls and into a side journal,
// OpenJournal on the crash image, and the batch equivalent of the live
// run untraced and traced (whose Results must be byte-identical).
func traceServe(opt options, base string, conns int, t *tally, m map[string]metric) error {
	p, sl, err := serveLayerPass(opt, "serve", base, conns, t)
	if err != nil {
		return err
	}
	tr := newTracer()

	// The batch equivalent of the live run, untraced then traced.
	id := tr.begin("scenario.Compile")
	_, err = initRequest(opt.seed).Scenario.Compile()
	tr.end(id)
	t.op(err)
	cfg := p.cfg
	plainRes, _, plainRun, err := simulate(cfg, nil, nil)
	t.op(err)
	if err != nil {
		return err
	}
	var c, sc planCounters
	tracedRes, _, tracedRun, err := simulate(cfg, tr, &c)
	t.op(err)
	if err != nil {
		return err
	}
	want, err := resultDigest(plainRes)
	if err != nil {
		return err
	}
	got, err := resultDigest(tracedRes)
	if err != nil {
		return err
	}
	t.check(got == want, "serve: traced batch Result differs from the untraced one")
	if err := sideNewCluster(cfg, tr); err != nil {
		return err
	}
	id = tr.begin("oracle.Solve")
	_, err = oracle.Solve(cfg)
	tr.end(id)
	t.op(err)
	full, fast, liveRes, err := slotTimes(cfg, tr, &sc)
	t.op(err)
	if err != nil {
		return err
	}
	got, err = resultDigest(liveRes)
	if err != nil {
		return err
	}
	t.check(got == want, "serve: live replay diverged from the batch run")
	fillLayers(m, tr, layerRun{
		plainCPU: plainRun, tracedCPU: tracedRun,
		counters: c, slots: tracedRes.Slots, fastSlots: tracedRes.FastSlots,
		full: full, fast: fast, serve: sl,
	})
	return tr.write(spanPath("serve", opt.seed))
}

// serveLayerPass measures the serve layer: one nominal-rate phase over
// HTTP (checked like every serve phase), the same schedule replayed by
// direct Runner calls and appended to a side journal, and OpenJournal on
// the phase's crash image. Its spans go to their own file, named after
// the workload whose traced run made the pass.
func serveLayerPass(opt options, workload, base string, conns int, t *tally) (nominalPhase, serveLayers, error) {
	var sl serveLayers
	p, err := runNominal(opt, 0, base, conns, window, t)
	if err != nil {
		return p, sl, err
	}
	tr := newTracer()
	sl.genLateP99 = quantile(p.load.late, 0.99)
	for i, o := range p.load.outs {
		if !o.abandoned {
			tr.add("serve.HTTP."+kindNames[p.sched[i].kind], p.load.start.Add(p.sched[i].at), o.done)
		}
		if o.status == http.StatusTooManyRequests {
			sl.shed++
		}
	}
	httpLat := p.load.latencies(p.sched, anyReq)

	direct, err := directReplay(opt, base, p.sched, tr, &sl)
	if err != nil {
		return p, sl, err
	}
	sl.httpQueueMs = median(httpLat) - median(direct)
	if err := sideJournal(base, p.sched, tr, &sl); err != nil {
		return p, sl, err
	}
	t0 := time.Now()
	id := tr.begin("serve.OpenJournal")
	j, _, err := serve.OpenJournal(filepath.Join(p.image, "journal.jsonl"), true)
	tr.end(id)
	sl.openJournalS = time.Since(t0).Seconds()
	t.op(err)
	if err == nil {
		t.op(j.Close())
	}
	sl.selfS = tr.selfByLayer()["serve"]
	return p, sl, tr.write(spanPath(workload+"-serve", opt.seed))
}

// directReplay replays the schedule at its intended times by calling a
// fresh Runner directly, no HTTP, with explicit checkpoints at the
// service's interval. It fills the per-call service times and returns
// each request's latency from its intended time, in ms.
func directReplay(opt options, base string, sched []plannedReq, tr *Tracer, sl *serveLayers) ([]float64, error) {
	dir := filepath.Join(base, "direct")
	if err := os.RemoveAll(dir); err != nil {
		return nil, err
	}
	id := tr.begin("serve.Open")
	r, err := serve.Open(dir, serve.Options{Fsync: true})
	tr.end(id)
	if err != nil {
		return nil, err
	}
	id = tr.begin("serve.Init")
	err = r.Init(initRequest(opt.seed))
	tr.end(id)
	if err != nil {
		_ = r.Close()
		return nil, err
	}
	var lat []float64
	mutations := 0
	start := time.Now()
	for _, q := range sched {
		if d := time.Until(start.Add(q.at)); d > 0 {
			time.Sleep(d)
		}
		t0 := time.Now()
		var err error
		switch q.kind {
		case kindSubmit, kindRetry:
			id := tr.begin("serve.Submit")
			_, _, err = r.Submit(q.key, q.job)
			tr.end(id)
			sl.submitMs = append(sl.submitMs, ms(time.Since(t0)))
			mutations++
		case kindTick:
			id := tr.begin("serve.Tick")
			_, err = r.Tick(serve.TickRequest{To: q.to})
			tr.end(id)
			sl.tickMs = append(sl.tickMs, ms(time.Since(t0)))
			mutations++
		case kindStatus:
			id := tr.begin("serve.Status")
			r.Status()
			tr.end(id)
		}
		if err != nil {
			_ = r.Close()
			return nil, err
		}
		if mutations >= checkpointEvery {
			mutations = 0
			t1 := time.Now()
			id := tr.begin("serve.Checkpoint")
			err := r.Checkpoint()
			tr.end(id)
			sl.checkpointMs = append(sl.checkpointMs, ms(time.Since(t1)))
			if err != nil {
				_ = r.Close()
				return nil, err
			}
		}
		lat = append(lat, ms(time.Since(start.Add(q.at))))
	}
	if st, err := os.Stat(filepath.Join(dir, "checkpoint.json")); err == nil {
		sl.checkpointBytes = float64(st.Size())
	}
	return lat, r.Close()
}

// sideJournal appends the schedule's journaled payloads to a side journal
// with fsync on, timing each Journal.Append.
func sideJournal(base string, sched []plannedReq, tr *Tracer, sl *serveLayers) error {
	path := filepath.Join(base, "side-journal.jsonl")
	if err := os.RemoveAll(path); err != nil {
		return err
	}
	j, _, err := serve.OpenJournal(path, true)
	if err != nil {
		return err
	}
	n := 0
	for _, q := range sched {
		var kind string
		var data any
		switch q.kind {
		case kindSubmit:
			kind, data = "submit", struct {
				Key string       `json:"key,omitempty"`
				Job workload.Job `json:"job"`
			}{q.key, q.job}
		case kindTick:
			kind, data = "tick", serve.TickRequest{To: q.to}
		default:
			continue // replays and reads are not journaled
		}
		t0 := time.Now()
		id := tr.begin("serve.JournalAppend")
		_, err := j.Append(kind, data)
		tr.end(id)
		sl.appendMs = append(sl.appendMs, ms(time.Since(t0)))
		if err != nil {
			_ = j.Close()
			return err
		}
		n++
	}
	if err := j.Close(); err != nil {
		return err
	}
	st, err := os.Stat(path)
	if err != nil {
		return err
	}
	if n > 0 {
		sl.journalBytesPerOp = float64(st.Size()) / float64(n)
	}
	return nil
}
