package main

import (
	"bytes"
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"hash"
	"io"
	"net"
	"net/http"
	"sync"
	"time"

	"github.com/specdag/specdag/internal/core"
	"github.com/specdag/specdag/internal/serve"
	"github.com/specdag/specdag/internal/wire"
)

// daemonClients is the number of closed-loop clients, each holding at most
// one HTTP connection at a time.
const daemonClients = 2

// daemonRunsPerClient is how many runs each client submits per session.
const daemonRunsPerClient = 4

// daemonRequest is run k of a client's closed loop: sync and async runs
// alternate, priorities rotate, and every run has its own seed.
func daemonRequest(seed int64, k, workers int) serve.RunRequest {
	req := serve.RunRequest{
		Dataset:  "fmnist",
		Seed:     seed + 7919*int64(k+1),
		Workers:  workers,
		Priority: k % 3,
		Label:    fmt.Sprintf("dagbench-%d", k),
	}
	if k%2 == 0 {
		req.Rounds = 10
	} else {
		req.Async = true
		req.Duration = 12
	}
	return req
}

// daemon is one in-process serve.Server on a loopback listener.
type daemon struct {
	srv  *serve.Server
	hs   *http.Server
	url  string
	done chan error
}

func startDaemon(workers int) (*daemon, error) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	d := &daemon{srv: serve.NewServer(serve.Config{Workers: workers}), url: "http://" + ln.Addr().String(), done: make(chan error, 1)}
	d.hs = &http.Server{Handler: d.srv.Handler()}
	go func() { d.done <- d.hs.Serve(ln) }()
	return d, nil
}

// stop shuts the HTTP side and the server down and waits for both.
func (d *daemon) stop() error {
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	err := d.hs.Shutdown(ctx)
	if serr := <-d.done; !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	if serr := d.srv.Shutdown(ctx); err == nil {
		err = serr
	}
	return err
}

// daemonRun is what one client observed of one hosted run.
type daemonRun struct {
	k            int
	firstEventMs float64
	unitMs       float64 // mean time between Round frames, first to last
	rounds       int
	frames       int
	bytes        int64
	ckptBytes    []int64
	dagSize      int // after the last unit
	last         map[int]float64
	fingerprint  string
}

// daemonPass is one session of the daemon-stream workload: set-up starts
// and health-checks a daemon; then daemonClients closed-loop clients each
// submit daemonRunsPerClient runs and stream their events to End; then the
// daemon shuts down. A session is a fixed amount of work, so the daemon's
// memory (it keeps every settled run) does not grow with the run length.
func daemonPass(r *runner) error {
	client := &http.Client{Transport: &http.Transport{MaxConnsPerHost: daemonClients, MaxIdleConnsPerHost: daemonClients}}
	defer client.CloseIdleConnections()
	var started []*daemon
	err := r.timedSetup(func() error {
		d, err := startDaemon(r.workers)
		if err != nil {
			return err
		}
		started = append(started, d)
		return healthz(client, d.url)
	})
	if !r.op(err, "start daemon") {
		for _, d := range started {
			d.stop()
		}
		return err
	}
	for _, warm := range started[:len(started)-1] {
		r.op(warm.stop(), "stop warm-up daemon")
	}
	d := started[len(started)-1]

	seed := r.passSeed()
	runs := make([]*daemonRun, daemonClients*daemonRunsPerClient)
	start, c0 := time.Now(), cpuTime()
	var wg sync.WaitGroup
	for c := 0; c < daemonClients; c++ {
		wg.Add(1)
		go func(c int) {
			defer wg.Done()
			for k := c; k < len(runs); k += daemonClients {
				if runs[k] = streamRun(r, client, d.url, seed, k); runs[k] == nil {
					return
				}
			}
		}(c)
	}
	wg.Wait()
	wall, cpu := time.Since(start), cpuTime()-c0
	if !r.op(d.stop(), "stop daemon") {
		return errors.New("daemon did not stop")
	}

	h := newHash()
	units := 0
	for k, dr := range runs {
		if !r.check(dr != nil, "run %d never settled", k) {
			return errors.New("a daemon run failed")
		}
		units += dr.rounds
		r.stepMs = append(r.stepMs, dr.unitMs)
		r.firstEventMs = append(r.firstEventMs, dr.firstEventMs)
		r.recordQuality(dr.last)
		r.count("serve.runs_settled", 1)
		r.count("core.units", float64(dr.rounds))
		r.count("dag.txs", float64(dr.dagSize))
		r.count("wire.frames", float64(dr.frames))
		r.count("wire.frame_bytes_total", float64(dr.bytes))
		for _, b := range dr.ckptBytes {
			r.count("core.checkpoints", 1)
			r.count("core.checkpoint_bytes_total", float64(b))
		}
		io.WriteString(h, dr.fingerprint)
	}
	// The runs share the process, so CPU time is only attributable per
	// session: one unit-time sample is the session's CPU per unit.
	r.addWork(units, wall, cpu)
	if units > 0 {
		r.stepCPUMs = append(r.stepCPUMs, ms(cpu)/float64(units))
	}
	r.endPass(sum(h))
	return nil
}

func healthz(client *http.Client, url string) error {
	resp, err := client.Get(url + "/healthz")
	if err != nil {
		return err
	}
	io.Copy(io.Discard, resp.Body)
	resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("status %d", resp.StatusCode)
	}
	return nil
}

// streamRun submits run k, streams its events to End and checks what
// arrived. It returns nil when the run could not be driven at all.
func streamRun(r *runner, client *http.Client, url string, seed int64, k int) *daemonRun {
	tr := r.tr
	var runID int64
	var runStart time.Duration
	if tr != nil {
		runID = tr.newID()
		runStart = tr.now()
	}
	req := daemonRequest(seed, k, r.workers)
	body, _ := json.Marshal(req) // a struct of strings and numbers always encodes
	dr := &daemonRun{k: k, last: map[int]float64{}}

	t0 := time.Now()
	var status serve.RunStatus
	var code int
	var err error
	submit := func() {
		var resp *http.Response
		if resp, err = client.Post(url+"/runs", "application/json", bytes.NewReader(body)); err != nil {
			return
		}
		defer resp.Body.Close()
		code = resp.StatusCode
		err = json.NewDecoder(resp.Body).Decode(&status)
	}
	if tr != nil {
		tr.timed(spanSubmit, runID, runID, submit)
	} else {
		submit()
	}
	if !r.check(err == nil && code == http.StatusCreated && status.ID > 0, "POST /runs (run %d): status %d, %v", k, code, err) {
		return nil
	}

	resp, err := client.Get(fmt.Sprintf("%s/runs/%d/events", url, status.ID))
	if !r.op(err, "GET events") {
		return nil
	}
	defer resp.Body.Close()
	if !r.check(resp.StatusCode == http.StatusOK, "GET events (run %d): status %d", k, resp.StatusCode) {
		return nil
	}
	body2 := &streamBody{r: resp.Body, tr: tr, unit: runID, parent: runID}
	rd, err := wire.NewReader(body2)
	if !r.op(err, "open event stream") {
		return nil
	}
	h := newHash()
	acc := newAccTracker(r)
	var end *wire.End
	var firstRound, lastRound time.Time
	for end == nil {
		var f *wire.Frame
		decode := func() { f, err = rd.ReadFrame() }
		if tr != nil {
			id := tr.newID()
			body2.parent = id
			s := tr.now()
			decode()
			tr.record(span{ID: id, Parent: runID, Unit: runID, Name: spanDecode, Start: s, End: tr.now()})
			body2.parent = runID
		} else {
			decode()
		}
		if !r.op(err, "decode event frame") {
			return nil
		}
		dr.frames++
		switch f.Kind {
		case wire.KindStart:
			r.check(dr.frames == 1, "run %d: start frame at position %d", k, dr.frames)
		case wire.KindRound:
			now := time.Now()
			if dr.rounds == 0 {
				dr.firstEventMs = ms(now.Sub(t0))
				firstRound = now
			}
			lastRound = now
			dr.rounds++
			dr.dagSize = f.Round.DAGSize
			readRound(acc, f.Round.Detail, h)
		case wire.KindCheckpoint:
			dr.ckptBytes = append(dr.ckptBytes, f.Checkpoint.Size)
		case wire.KindGap:
			r.check(false, "run %d: unrecovered stream gap [%d, %d)", k, f.Gap.From, f.Gap.To)
		case wire.KindEnd:
			end = f.End
		}
	}
	// The server closes the stream after End; reading to EOF and closing
	// returns the connection to the pool before the status request below.
	_, err = io.Copy(io.Discard, body2)
	r.op(err, "drain event stream")
	resp.Body.Close()
	dr.bytes = body2.bytes
	if tr != nil {
		tr.record(span{ID: runID, Unit: runID, Name: spanRun, Start: runStart, End: tr.now()})
	}
	r.check(end.Completed && end.Err == "", "run %d ended incomplete: %q", k, end.Err)
	r.check(end.Steps == dr.rounds, "run %d: End reports %d steps, %d round frames arrived", k, end.Steps, dr.rounds)
	if !req.Async {
		r.check(dr.rounds == req.Rounds, "sync run %d streamed %d of %d rounds", k, dr.rounds, req.Rounds)
	}
	if r.check(dr.rounds > 1, "run %d streamed %d rounds, want several", k, dr.rounds) {
		dr.unitMs = ms(lastRound.Sub(firstRound)) / float64(dr.rounds-1)
	}
	dr.last = acc.last
	dr.fingerprint = sum(h)
	r.op(checkSettled(client, url, status.ID, end.Steps), "GET /runs/{id}")
	return dr
}

// readRound feeds a streamed unit into the accuracy tracker, like the
// in-process hooks do.
func readRound(acc *accTracker, detail any, h hash.Hash) {
	switch d := detail.(type) {
	case *core.RoundResult:
		acc.add(d.Active, d.TrainedAcc, h)
	case *core.AsyncEvent:
		acc.add([]int{d.Client}, []float64{d.TrainedAcc}, h)
	default:
		acc.r.check(false, "round frame carries %T", detail)
	}
}

func checkSettled(client *http.Client, url string, id, steps int) error {
	resp, err := client.Get(fmt.Sprintf("%s/runs/%d", url, id))
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	var st serve.RunStatus
	if err := json.NewDecoder(resp.Body).Decode(&st); err != nil {
		return err
	}
	if resp.StatusCode != http.StatusOK || st.State != serve.StateDone || st.Steps != steps {
		return fmt.Errorf("status %d, state %q, steps %d (want done, %d)", resp.StatusCode, st.State, st.Steps, steps)
	}
	return nil
}

// streamBody counts the bytes of an event-stream body and, when traced,
// records every Read as a span: the time the subscriber waits for bytes,
// kept apart from the time it spends decoding them.
type streamBody struct {
	r            io.Reader
	tr           *tracer
	unit, parent int64
	bytes        int64
}

func (b *streamBody) Read(p []byte) (n int, err error) {
	if b.tr != nil {
		b.tr.timed(spanRead, b.parent, b.unit, func() { n, err = b.r.Read(p) })
	} else {
		n, err = b.r.Read(p)
	}
	b.bytes += int64(n)
	return n, err
}
