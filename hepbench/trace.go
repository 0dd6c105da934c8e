package main

import (
	"bytes"
	"fmt"
	"os"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/grid"
	"github.com/wustl-adapt/hepccl/internal/runccl"
	"github.com/wustl-adapt/hepccl/internal/tileccl"
	"github.com/wustl-adapt/hepccl/internal/wal"
)

// span is one timed call, or group of calls, into a layer.
type span struct {
	name   string
	trace  int32 // request id: spans of one phase share it
	parent int32 // index of the enclosing span, -1 for a phase root
	events int32 // events the span covered
	start  int64
	end    int64
}

// tracer keeps spans in memory until the traced run ends.
type tracer struct {
	clk   clock
	spans []span
}

func (t *tracer) begin(name string, trace, parent int32, events int) int32 {
	t.spans = append(t.spans, span{name: name, trace: trace, parent: parent, events: int32(events), start: t.clk.now()})
	return int32(len(t.spans) - 1)
}

func (t *tracer) end(i int32) { t.spans[i].end = t.clk.now() }

// child records a span measured by the layer itself (tileccl's phase
// counters) under parent.
func (t *tracer) child(name string, parent int32, start, dur int64) int32 {
	p := t.spans[parent]
	t.spans = append(t.spans, span{name: name, trace: p.trace, parent: parent, events: p.events, start: start, end: start + dur})
	return int32(len(t.spans) - 1)
}

// layerTotals aggregates spans by name: inclusive and self time (duration
// minus the part its children cover) and events covered. Roots are the
// phases; their self time is the harness's own, unaccounted time.
type layerTotals struct {
	incl, self map[string]int64
	events     map[string]int64
	rootWall   int64
	rootSelf   int64
}

func (t *tracer) totals() layerTotals {
	lt := layerTotals{incl: map[string]int64{}, self: map[string]int64{}, events: map[string]int64{}}
	self := make([]int64, len(t.spans))
	for i, s := range t.spans {
		self[i] += s.end - s.start
		if s.parent >= 0 {
			self[s.parent] -= s.end - s.start
		}
	}
	for i, s := range t.spans {
		if s.parent < 0 {
			lt.rootWall += s.end - s.start
			lt.rootSelf += self[i]
			continue
		}
		lt.incl[s.name] += s.end - s.start
		lt.self[s.name] += self[i]
		lt.events[s.name] += int64(s.events)
	}
	return lt
}

// perEvent is a layer's inclusive time per event, in ns.
func (lt layerTotals) perEvent(name string) float64 {
	if lt.events[name] == 0 {
		return 0
	}
	return float64(lt.incl[name]) / float64(lt.events[name])
}

// unaccountedTolerance bounds the share of traced wall time that no layer
// span covers; above it the per-layer table does not explain the wall time
// and the traced run fails.
const unaccountedTolerance = 0.02

// phaseTime is how long each traced phase runs; every phase also makes at
// least two passes.
const phaseTime = 200 * time.Millisecond

// traceEnv is everything the traced layers run on: the workload's templates
// decoded and served by a pipeline calibrated like the daemon's.
type traceEnv struct {
	cfg    adapt.Config
	templs []template
	p      *adapt.Pipeline
	tmp    string // parent of the traced WAL directory
	group  int    // events per span
}

// repeatReader yields b over and over, so a layer's reader can run for as
// long as a phase lasts without being reset.
type repeatReader struct {
	b   []byte
	off int
}

func (r *repeatReader) Read(p []byte) (int, error) {
	n := copy(p, r.b[r.off:])
	r.off = (r.off + n) % len(r.b)
	return n, nil
}

// cheapReps repeats the cheapest layers' calls inside one span so the span
// bookkeeping stays small against the time measured.
const cheapReps = 64

// tracedRun sends the workload's inputs through each layer's public entry
// point in-process, one phase per layer, and returns the per-layer metrics.
// Each phase checks its last pass's output after its root span closes.
func tracedRun(env traceEnv) (map[string]float64, error) {
	cfg, templs, p := env.cfg, env.templs, env.p
	nt, asics, g := len(templs), cfg.ASICs, env.group
	tr := &tracer{clk: clock{t0: time.Now()}, spans: make([]span, 0, 1<<14)}
	var phase int32

	// runPhase repeats body under a root span until phaseTime has passed,
	// then runs check on the last pass's output.
	runPhase := func(name string, body func(root int32) error, check func() error) error {
		phase++
		root := tr.begin(name, phase, -1, 0)
		start := time.Now()
		var err error
		for pass := 0; err == nil && (pass < 2 || time.Since(start) < phaseTime); pass++ {
			err = body(root)
		}
		tr.end(root)
		if err == nil && check != nil {
			err = check()
		}
		if err != nil {
			return fmt.Errorf("%s: %w", name, err)
		}
		return nil
	}

	// One group of events on the wire, ids 0..g-1, templates in turn.
	var groupWire []byte
	for k := 0; k < g; k++ {
		w := append([]byte(nil), templs[k%nt].wire...)
		templs[k%nt].setEventID(w, uint32(k))
		groupWire = append(groupWire, w...)
	}

	raw := adapt.NewRawEventReader(&repeatReader{b: groupWire})
	var frame []byte
	var frameID uint32
	err := runPhase("phase.gateway.frame", func(root int32) error {
		s := tr.begin("gateway.frame", phase, root, g)
		var err error
		for k := 0; k < g && err == nil; k++ {
			frameID, frame, err = raw.ReadEventInto(frame, asics)
		}
		tr.end(s)
		return err
	}, func() error {
		if frameID != uint32(g-1) || !bytes.Equal(frame, groupWire[len(groupWire)-len(frame):]) {
			return fmt.Errorf("framed the wrong bytes")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	sr := adapt.NewStreamReader(&repeatReader{b: groupWire})
	decoded := make([][]adapt.Packet, g)
	err = runPhase("phase.adapt.stream.read", func(root int32) error {
		s := tr.begin("adapt.stream.read", phase, root, g)
		var err error
		for k := 0; k < g && err == nil; k++ {
			decoded[k], err = sr.ReadEventInto(decoded[k], asics)
		}
		tr.end(s)
		return err
	}, func() error {
		if decoded[g-1][0].Event != uint32(g-1) {
			return fmt.Errorf("decoded the wrong event")
		}
		return nil
	})
	decoded = nil
	if err != nil {
		return nil, err
	}

	walDir, err := os.MkdirTemp(env.tmp, "trace-wal-")
	if err != nil {
		return nil, err
	}
	defer os.RemoveAll(walDir)
	ww, _, err := wal.Open(wal.Options{Dir: walDir, SegmentBytes: walSegmentMB << 20, Retain: walRetain})
	if err != nil {
		return nil, err
	}
	err = runPhase("phase.wal.append", func(root int32) error {
		s := tr.begin("wal.append", phase, root, g)
		var err error
		off := 0
		for k := 0; k < g && err == nil; k++ {
			n := len(templs[k%nt].wire)
			err = ww.Append(uint32(k), groupWire[off:off+n])
			off += n
		}
		tr.end(s)
		return err
	}, nil)
	if cerr := ww.Close(); err == nil {
		err = cerr
	}
	if err != nil {
		return nil, err
	}

	// Serving phases reuse the templates' decoded packets; ServeBatch only
	// reads them.
	const batch = 64
	events := make([][]adapt.Packet, batch)
	for k := range events {
		events[k] = templs[k%nt].packets
	}
	recs := make([]adapt.EventRecord, batch)
	errs := make([]error, batch)
	checkRecs := func(n int) func() error {
		return func() error {
			for k := 0; k < n; k++ {
				if errs[k] != nil {
					return errs[k]
				}
				if b := recs[k].Marshal(); !bytes.Equal(b[4:], templs[k%nt].ref[4:]) {
					return fmt.Errorf("record %d does not match its reference", k)
				}
			}
			return nil
		}
	}
	err = runPhase("phase.adapt.serve.batch64", func(root int32) error {
		s := tr.begin("adapt.serve.batch64", phase, root, batch)
		p.ServeBatch(events, recs, errs)
		tr.end(s)
		return nil
	}, checkRecs(batch))
	if err != nil {
		return nil, err
	}
	err = runPhase("phase.adapt.serve.batch1", func(root int32) error {
		s := tr.begin("adapt.serve.batch1", phase, root, g)
		for k := 0; k < g; k++ {
			p.ServeBatch(events[k:k+1], recs[k:k+1], errs[k:k+1])
		}
		tr.end(s)
		return nil
	}, checkRecs(g))
	if err != nil {
		return nil, err
	}
	err = runPhase("phase.adapt.serve.frame", func(root int32) error {
		s := tr.begin("adapt.serve.frame", phase, root, g)
		for k := 0; k < g; k++ {
			errs[k] = p.ServeEvent(events[k], &recs[k])
		}
		tr.end(s)
		return nil
	}, checkRecs(g))
	if err != nil {
		return nil, err
	}

	var encoded []byte
	err = runPhase("phase.adapt.transmit.encode", func(root int32) error {
		encoded = encoded[:0]
		s := tr.begin("adapt.transmit.encode", phase, root, g*cheapReps)
		for r := 0; r < cheapReps; r++ {
			for k := 0; k < g; k++ {
				encoded = recs[k].AppendTo(encoded)
			}
		}
		tr.end(s)
		return nil
	}, func() error {
		if !bytes.Equal(encoded[len(encoded)-len(templs[(g-1)%nt].ref)+4:], templs[(g-1)%nt].ref[4:]) {
			return fmt.Errorf("encoded the wrong record")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	rs := adapt.NewRecordScanner(&repeatReader{b: encoded}, nil)
	var rec []byte
	err = runPhase("phase.gateway.record", func(root int32) error {
		s := tr.begin("gateway.record", phase, root, g*cheapReps)
		var err error
		for k := 0; k < g*cheapReps && err == nil; k++ {
			rec, err = rs.Next()
		}
		tr.end(s)
		return err
	}, func() error {
		if !bytes.Equal(rec[4:], templs[(g-1)%nt].ref[4:]) {
			return fmt.Errorf("scanned the wrong record")
		}
		return nil
	})
	if err != nil {
		return nil, err
	}

	if err := traceTileccl(tr, &phase, runPhase, env); err != nil {
		return nil, err
	}

	// Span overhead: empty spans under their own root, kept out of the
	// accounting check because they are nothing but overhead.
	const empties = 10000
	ov := &tracer{clk: tr.clk, spans: make([]span, 0, empties+1)}
	oroot := ov.begin("overhead", 0, -1, 0)
	for k := 0; k < empties; k++ {
		ov.end(ov.begin("empty", 0, oroot, 0))
	}
	ov.end(oroot)
	overhead := float64(ov.spans[oroot].end-ov.spans[oroot].start) / empties

	lt := tr.totals()
	m := map[string]float64{
		"adapt.stream.read_ns":     lt.perEvent("adapt.stream.read"),
		"adapt.serve.batch64_ns":   lt.perEvent("adapt.serve.batch64"),
		"adapt.serve.batch1_ns":    lt.perEvent("adapt.serve.batch1"),
		"adapt.serve.frame_us":     lt.perEvent("adapt.serve.frame") / 1e3,
		"adapt.transmit.encode_ns": lt.perEvent("adapt.transmit.encode"),
		"tileccl.label_us.w1":      lt.perEvent("tileccl.label.w1") / 1e3,
		"tileccl.label_us.w2":      lt.perEvent("tileccl.label.w2") / 1e3,
		"tileccl.tile_us":          lt.perEvent("tileccl.tile") / 1e3,
		"tileccl.merge_us":         lt.perEvent("tileccl.merge") / 1e3,
		"tileccl.scatter_us":       lt.perEvent("tileccl.scatter") / 1e3,
		"wal.append_ns":            lt.perEvent("wal.append"),
		"gateway.frame_ns":         lt.perEvent("gateway.frame"),
		"gateway.record_ns":        lt.perEvent("gateway.record"),
		"trace.span_overhead_ns":   overhead,
	}
	// layer_sum_ns: every layer's self time per event of its phase, summed
	// — what one event costs passing once through each traced layer.
	var sum float64
	for name, self := range lt.self {
		sum += float64(self) / float64(lt.events[name])
	}
	m["trace.layer_sum_ns"] = sum
	m["trace.unaccounted_frac"] = float64(lt.rootSelf) / float64(lt.rootWall)
	if u := m["trace.unaccounted_frac"]; u > unaccountedTolerance {
		return m, fmt.Errorf("layer self times cover only %.1f%% of traced wall time (tolerance %.0f%%)",
			100*(1-u), 100*unaccountedTolerance)
	}
	return m, nil
}

// traceTileccl labels the workload's frames on tileccl engines of one and two
// workers. The two-worker engine reports its tile, merge and scatter phases,
// which become child spans of its label span.
func traceTileccl(tr *tracer, phase *int32, runPhase func(string, func(int32) error, func() error) error, env traceEnv) error {
	cfg, templs, p := env.cfg, env.templs, env.p
	rows, cols := cfg.Detection.TwoD.Rows, cfg.Detection.TwoD.Cols
	nt, g := len(templs), env.group
	values := make([][]grid.Value, nt)
	bitmaps := make([][]uint64, nt)
	var islands []runccl.Island
	for workers := 1; workers <= 2; workers++ {
		eng, err := tileccl.New(tileccl.Config{Rows: rows, Cols: cols, Connectivity: cfg.Detection.TwoD.Connectivity, Workers: workers})
		if err != nil {
			return err
		}
		if values[0] == nil {
			for k := range templs {
				values[k] = zeroSuppressed(cfg, p, templs[k].packets)
				bitmaps[k] = eng.Pack(values[k], nil)
			}
		}
		instrument := workers == 2
		eng.SetInstrument(instrument)
		name := fmt.Sprintf("tileccl.label.w%d", workers)
		err = runPhase("phase."+name, func(root int32) error {
			// Phases covers one Label call (zeros when not instrumented);
			// sum them over the group.
			var tileNs, mergeNs, scatterNs int64
			s := tr.begin(name, *phase, root, g)
			for k := 0; k < g; k++ {
				islands = eng.Label(bitmaps[k%nt], values[k%nt], islands[:0])
				t, m := eng.Phases()
				tileNs, mergeNs, scatterNs = tileNs+t, mergeNs+m, scatterNs+eng.MergeScatterNs()
			}
			tr.end(s)
			if instrument {
				start := tr.spans[s].start
				tr.child("tileccl.tile", s, start, tileNs)
				m := tr.child("tileccl.merge", s, start+tileNs, mergeNs)
				tr.child("tileccl.scatter", m, start+tileNs, scatterNs)
			}
			return nil
		}, func() error { return checkIslands(islands, templs[(g-1)%nt].ref) })
		eng.Close()
		if err != nil {
			return err
		}
	}
	return nil
}

// zeroSuppressed builds an event's merged, zero-suppressed image from the
// paper pipeline's stage functions under p's calibration.
func zeroSuppressed(cfg adapt.Config, p *adapt.Pipeline, packets []adapt.Packet) []grid.Value {
	px := cfg.Detection.TwoD.Rows * cfg.Detection.TwoD.Cols
	vals := make([]grid.Value, px)
	for i := range packets {
		base := packets[i].ASICIndex() * adapt.ChannelsPerASIC
		for ch, raw := range packets[i].Integrals() {
			if fl := base + ch; fl < px {
				net := adapt.PedestalSubtract(raw, p.Pedestal(fl))
				vals[fl] = adapt.ZeroSuppress(adapt.PhotonCount(net, cfg.GainADC), cfg.ThresholdPE)
			}
		}
	}
	return vals
}

// checkIslands compares labeled islands with a reference record's entries.
func checkIslands(islands []runccl.Island, ref []byte) error {
	want, err := adapt.UnmarshalEventRecord(ref)
	if err != nil {
		return err
	}
	if len(islands) != len(want.Islands) {
		return fmt.Errorf("labeled %d islands, reference has %d", len(islands), len(want.Islands))
	}
	for i, is := range islands {
		w := want.Islands[i]
		if is.Pixels != w.Pixels || is.Sum != w.Sum || is.RowQ16 != w.RowQ16 || is.ColQ16 != w.ColQ16 {
			return fmt.Errorf("island %d differs from the reference", i)
		}
	}
	return nil
}
