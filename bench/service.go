package main

import (
	"context"
	"encoding/json"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"sync"
	"time"

	sramaging "repro"
	"repro/internal/core"
	"repro/internal/keylife"
	"repro/internal/serve"
	"repro/internal/store"
)

// service drives an in-process assessd — serve.Manager with two workers and
// two active campaigns, behind serve.Handler on a loopback listener — from
// two serve.Clients in closed-loop rounds. Campaign i runs serviceSpecs[i%4] on
// seed+i. It is the only workload through serve (HTTP, NDJSON streaming,
// per-month checkpoints), shard (the fleet spec's one-shard in-process
// detour and the two-shard rig) and keylife (burn-in screening and
// enrollment, rebuilt for every campaign). One operation is one campaign,
// submit to done.
var serviceSpecs = [...]serve.Spec{
	specRig:     {Devices: 4, Months: 3, Window: 100},
	specKeyLife: {Devices: 4, Months: 3, Window: 100, KeyLife: true},
	specFleet:   {Fleet: []string{"fleetnode-1kb", "fleetnode-2kb"}, Lazy: true, Devices: 64, Months: 2, Window: 8, ScreenFloor: 0.9},
	specShards:  {Devices: 4, Months: 3, Window: 100, Shards: 2},
}

const (
	specRig = iota
	specKeyLife
	specFleet
	specShards
)

// serviceSpec returns spec kind on the given seed, normalised exactly as
// the service normalises what it receives.
func serviceSpec(kind int, seed uint64) (serve.Spec, error) {
	spec := serviceSpecs[kind]
	spec.Seed = seed
	data, err := json.Marshal(spec)
	if err != nil {
		return serve.Spec{}, err
	}
	return serve.DecodeSpec(data)
}

type service struct {
	e      *env
	dir    string
	mgr    *serve.Manager
	srv    *http.Server
	served chan error
	client *http.Client
	base   string

	mu     sync.Mutex
	first  map[int]campaignRun // campaign i of kind i, for i < len(serviceSpecs)
	traced []campaignRun
	lat    map[int][]float64 // per kind, ms
}

// campaignRun is one campaign as its client saw it.
type campaignRun struct {
	spec       serve.Spec
	res        *core.Results
	submit     time.Duration // POST until the service admitted it
	queue      time.Duration // then until it reported running
	firstMonth time.Duration // submit until the first month arrived
	total      time.Duration // submit until done
	checkpoint int64         // the campaign's checkpoint archive, bytes
}

func setupService(e *env) (instance, error) {
	dir, err := os.MkdirTemp(e.dir, "assessd-")
	if err != nil {
		return nil, err
	}
	mgr, err := serve.NewManager(serve.Config{DataDir: dir, Workers: workers, MaxActive: clients})
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, errors.Join(err, mgr.Close(context.Background()))
	}
	s := &service{
		e:      e,
		dir:    dir,
		mgr:    mgr,
		srv:    &http.Server{Handler: serve.Handler(mgr)},
		served: make(chan error, 1),
		client: &http.Client{Transport: &http.Transport{}},
		base:   "http://" + ln.Addr().String(),
		first:  map[int]campaignRun{},
		lat:    map[int][]float64{},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	// Ready once the service answers its health check.
	resp, err := s.client.Get(s.base + "/v1/healthz")
	if err == nil {
		resp.Body.Close()
		if resp.StatusCode != http.StatusOK {
			err = fmt.Errorf("health check: %s", resp.Status)
		}
	}
	if err != nil {
		return nil, errors.Join(err, s.close())
	}
	return s, nil
}

func (s *service) close() error {
	err := s.srv.Close()
	if serr := <-s.served; !errors.Is(serr, http.ErrServerClosed) {
		err = errors.Join(err, serr)
	}
	ctx, cancel := context.WithTimeout(context.Background(), time.Minute)
	defer cancel()
	err = errors.Join(err, s.mgr.Close(ctx))
	s.client.CloseIdleConnections()
	return errors.Join(err, os.RemoveAll(s.dir))
}

// run drives the clients in rounds: in round r, client c runs campaign
// r·clients+c, and the next round starts when every client's campaign is
// done, with the host reference timed in between while the service is idle.
func (s *service) run(ctx context.Context, l *opLog) error {
	cls := make([]*serve.Client, clients)
	for c := range cls {
		cls[c] = &serve.Client{Base: s.base, HTTPClient: s.client}
	}
	for r := 0; l.open(); r++ {
		l.calibrate()
		errs := make([]error, clients)
		var wg sync.WaitGroup
		for c, cl := range cls {
			wg.Add(1)
			go func() {
				defer wg.Done()
				errs[c] = s.campaign(ctx, cl, l, r*clients+c)
			}()
		}
		wg.Wait()
		if err := errors.Join(errs...); err != nil {
			return err
		}
	}
	return nil
}

// campaign runs service campaign i as one operation.
func (s *service) campaign(ctx context.Context, cl *serve.Client, l *opLog, i int) error {
	kind := i % len(serviceSpecs)
	spec, err := serviceSpec(kind, s.e.seed+uint64(i))
	if err != nil {
		return err
	}
	// Whole rotations alternate plain and traced, so both sides of
	// trace.overhead hold every spec kind.
	traced := s.e.tr != nil && i/len(serviceSpecs)%2 == 1
	var at scope
	if traced {
		at = s.e.span(i, "campaign")
	}
	start := l.now()
	run, err := s.call(ctx, cl, at, spec)
	at.end()
	o := op{kind: kind, start: start, end: l.now(), traced: traced, err: err}
	if err == nil {
		o.readouts = readouts(run.res, spec.Window)
	}
	l.add(o)
	if err != nil {
		return fmt.Errorf("service campaign %d: %w", i, err)
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if i < len(serviceSpecs) {
		s.first[kind] = run
	}
	if o.traced {
		s.traced = append(s.traced, run)
	}
	s.lat[kind] = append(s.lat[kind], float64(o.end-o.start)/1e6) // wall time, as the twins are timed
	return nil
}

// call submits spec and follows the campaign's event stream to its end,
// timing the stages a client sees.
func (s *service) call(ctx context.Context, cl *serve.Client, at scope, spec serve.Spec) (campaignRun, error) {
	run := campaignRun{spec: spec, res: &core.Results{}}
	t0 := time.Now()
	submit := at.begin("serve.submit")
	st, err := cl.Submit(ctx, spec)
	submit.end()
	if err != nil {
		return run, err
	}
	run.submit = time.Since(t0)
	queue := at.begin("serve.queue")
	var running scope
	var terminal *serve.Event
	err = cl.Stream(ctx, st.ID, func(ev serve.Event) error {
		switch ev.Type {
		case "status":
			if ev.Status == serve.StatusRunning && run.queue == 0 {
				run.queue = time.Since(t0) - run.submit
				queue.end()
				running = at.begin("serve.run")
			}
		case "month":
			if run.firstMonth == 0 {
				run.firstMonth = time.Since(t0)
			}
			run.res.Monthly = append(run.res.Monthly, *ev.Month)
		case "done", "error":
			terminal = &ev
		}
		return nil
	})
	running.end()
	run.total = time.Since(t0)
	switch {
	case err != nil:
		return run, err
	case terminal == nil:
		return run, fmt.Errorf("campaign %s: stream ended without a terminal event", st.ID)
	case terminal.Type == "error":
		return run, fmt.Errorf("campaign %s failed: %s (%s)", st.ID, terminal.Error, terminal.ErrKind)
	case terminal.Table == nil:
		return run, fmt.Errorf("campaign %s: done without Table I", st.ID)
	}
	run.res.Table = *terminal.Table
	if got, want := len(run.res.Monthly), len(spec.EvalMonths()); got != want {
		return run, fmt.Errorf("campaign %s: %d months streamed, want %d", st.ID, got, want)
	}
	info, err := os.Stat(filepath.Join(s.dir, st.ID+".bin"))
	if err != nil {
		return run, fmt.Errorf("campaign %s checkpoint: %w", st.ID, err)
	}
	run.checkpoint = info.Size()
	return run, nil
}

// twinRun is one service campaign run directly on the engine.
type twinRun struct {
	res        *core.Results
	ns         int64 // construction and run
	probe      *sourceProbe
	tap        Counter
	checkpoint int64 // bytes the checkpoint tap wrote; 0 without a tap
	keylifeNs  int64 // keylife.New plus every call into its metrics
}

// twin runs spec directly: the rig (or, for a fleet, the lazy source) in
// process when shards is 0, else the spec's source on that many in-process
// shards — the service's own path for fleets and sharded specs. Sources
// that can tap their record stream write a checkpoint as the service does.
func (s *service) twin(ctx context.Context, n int, spec serve.Spec, shards int) (*twinRun, error) {
	tw := &twinRun{}
	var at, cur scope
	if s.e.tr != nil {
		at = s.e.span(1_000_000+n, "twin")
		defer at.end()
	}
	t0 := time.Now()
	var src core.Source
	var tapper interface {
		SetTap(func(store.Record) error)
	}
	var err error
	switch {
	case len(spec.Fleet) > 0 && shards == 0:
		var lazy *core.LazySimSource
		if lazy, err = core.NewLazySimFleetSource(s.e.fleet, spec.Devices, spec.Seed); err == nil {
			lazy.SetWorkers(1)
			src = lazy
		}
	case len(spec.Fleet) > 0 || shards > 0:
		var sh *core.ShardedSource
		if len(spec.Fleet) > 0 {
			sh, err = core.NewShardedLazySimFleetSource(s.e.fleet, spec.Devices, spec.Seed, shards, nil)
		} else {
			sh, err = core.NewShardedRigSource(s.e.atmega, spec.Devices, spec.Seed, spec.I2CError, shards, nil)
		}
		if err == nil {
			defer sh.Close()
			sh.SetWorkers(1) // the service's per-campaign share of its budget
			src, tapper = sh, sh
		}
	default:
		var rig *core.RigSource
		if rig, err = core.NewRigSource(s.e.atmega, spec.Devices, spec.Seed, spec.I2CError); err == nil {
			src, tapper = rig, rig
		}
	}
	if err != nil {
		return nil, err
	}
	var w *store.BinaryWriter
	var f *os.File
	if tapper != nil {
		if f, err = os.Create(filepath.Join(s.e.dir, fmt.Sprintf("twin-%d.bin", n))); err != nil {
			return nil, err
		}
		defer os.Remove(f.Name())
		defer f.Close()
		w = store.NewBinaryWriterV1(f)
		if s.e.tr != nil {
			tapper.SetTap(timedTap(s.e.tr, &tw.tap, w.Write))
		} else {
			tapper.SetTap(w.Write)
		}
	}
	cfg := core.AssessmentConfig{Source: src, WindowSize: spec.Window, Months: spec.EvalMonths()}
	if spec.ScreenFloor > 0 {
		cfg.Screening = &core.ScreeningConfig{Floor: spec.ScreenFloor}
	}
	if spec.KeyLife {
		var calls Counter
		k0 := time.Now()
		wl, err := keylife.New(ctx, keylife.Config{Profile: s.e.atmega, Devices: spec.Devices, Seed: spec.Seed})
		tw.keylifeNs = int64(time.Since(k0))
		if err != nil {
			return nil, err
		}
		cfg.Metrics, cfg.CrossMetrics = wl.Metrics(), wl.CrossMetrics()
		if s.e.tr != nil {
			cfg.Metrics, cfg.CrossMetrics = timedMetrics(s.e.tr, &cur, &calls, cfg.Metrics, cfg.CrossMetrics)
			defer func() { tw.keylifeNs += calls.Ns() }()
		}
	}
	if s.e.tr != nil {
		tw.probe = newProbe(src, max(1, shards), &cur)
		cfg.Source = tw.probe
	}
	if tw.res, err = monthly(ctx, cfg, at, &cur, tw.probe, nil, nil); err != nil {
		return nil, err
	}
	if w != nil {
		if err := w.Flush(); err != nil {
			return nil, err
		}
		info, err := f.Stat()
		if err != nil {
			return nil, err
		}
		tw.checkpoint = info.Size()
	}
	tw.ns = int64(time.Since(t0))
	return tw, nil
}

func (s *service) check(ctx context.Context, r *outcome) error {
	// path[k] is spec k on the service's own source path; direct[k] the
	// in-process twin it detours around (fleet: lazy, shards: the rig).
	var path, direct [len(serviceSpecs)]*twinRun
	for k := range serviceSpecs {
		run, ok := s.first[k]
		if !ok {
			r.fail("service: campaign %d did not complete", k)
			return nil
		}
		shards := 0
		switch k {
		case specFleet:
			shards = 1
		case specShards:
			shards = run.spec.Shards
		}
		var err error
		if path[k], err = s.twin(ctx, 2*k, run.spec, shards); err != nil {
			return fmt.Errorf("service twin %d: %w", k, err)
		}
		if shards > 0 {
			if direct[k], err = s.twin(ctx, 2*k+1, run.spec, 0); err != nil {
				return fmt.Errorf("service direct twin %d: %w", k, err)
			}
		}
		want := resultDigest(run.res)
		for _, tw := range []*twinRun{path[k], direct[k]} {
			if tw != nil && resultDigest(tw.res) != want {
				r.fail("service: campaign %d (spec %d) differs from its direct run", k, k)
			}
		}
		if k == specKeyLife {
			s.e.golden.check(r, "service.keylife_table", digest(sramaging.RenderKeyLifeTable(path[k].res)))
		}
	}
	if s.e.tr == nil {
		return nil
	}

	var probes []*sourceProbe
	var tapBytes, tapNs float64
	for _, tw := range path {
		probes = append(probes, tw.probe)
		tapBytes += float64(tw.checkpoint)
		tapNs += float64(tw.tap.Ns())
	}
	reportCore(r, s.e.tr.Spans(), probes...)
	rig := path[specRig].probe
	r.set("harness.self_share", ratio(float64(rig.measureNs-path[specRig].tap.Ns()-rig.add.Ns()), float64(rig.measureNs)))
	r.set("store.write_mb_per_s", ratio(tapBytes/1e6, tapNs/1e9))
	r.set("store.archive_mb", float64(path[specRig].checkpoint)/1e6)

	kl := path[specKeyLife]
	r.set("keylife.share", ratio(float64(kl.keylifeNs), float64(kl.ns)))
	var ok, tried float64
	for _, dev := range kl.res.CustomSeries(keylife.MetricSuccess) {
		for _, v := range dev[1:] { // month 0 enrolls
			ok += v
			tried++
		}
	}
	r.set("keylife.success_ratio", ratio(ok, tried))
	r.set("shard.overhead_ratio", ratio(float64(path[specFleet].ns), float64(direct[specFleet].ns)))
	r.set("shard.rig_overhead_ratio", ratio(float64(path[specShards].ns), float64(direct[specShards].ns)))

	var submit, queue, first, ckpt float64
	for _, run := range s.traced {
		submit += ratio(float64(run.submit), float64(run.total))
		queue += ratio(float64(run.queue), float64(run.total))
		first += ratio(float64(run.firstMonth), float64(run.total))
		ckpt += float64(run.checkpoint) / 1e3
	}
	n := float64(len(s.traced))
	r.set("serve.submit_share", ratio(submit, n))
	r.set("serve.queue_share", ratio(queue, n))
	r.set("serve.first_month_share", ratio(first, n))
	r.set("serve.checkpoint_kb", ratio(ckpt, n))
	var overhead float64
	for k, tw := range path {
		lat := median(s.lat[k])
		overhead += ratio(lat-float64(tw.ns)/1e6, lat)
	}
	r.set("serve.overhead_share", overhead/float64(len(path)))

	// The decomposition replays the device-months of the fleet spec's
	// direct twin.
	fleet := direct[specFleet]
	spec := s.first[specFleet].spec
	last := fleet.res.Monthly[len(fleet.res.Monthly)-1]
	r.set("core.survivor_ratio", ratio(float64(len(last.Devices)), float64(spec.Devices)))
	every := make([]int, spec.Devices)
	for g := range every {
		every[g] = g
	}
	return reportDecomposition(ctx, r, decompConfig{
		fleet:  s.e.fleet,
		seed:   spec.Seed,
		window: spec.Window,
		months: spec.EvalMonths(),
		sample: every,
		alive: func(mi, g int) bool {
			_, ok := fleet.res.Monthly[mi].DeviceMonthAt(g)
			return ok
		},
	}, sourcePerDeviceMonth(spec.Window, fleet.probe))
}
