package main

import (
	"bytes"
	"fmt"

	"github.com/wustl-adapt/hepccl/internal/adapt"
	"github.com/wustl-adapt/hepccl/internal/detector"
	"github.com/wustl-adapt/hepccl/internal/grid"
)

// workload is one traffic mix: the daemon configuration it runs against and
// the loop that feeds it.
type workload struct {
	name string

	config string // hepccld -config: cta or RxC
	policy string // hepccld -policy
	// gateway routes the client through hepcclgw; record turns on the
	// daemon's write-ahead log in a fresh directory.
	gateway bool
	record  bool

	conns int
	// rate > 0 is an open loop at that aggregate event rate; otherwise a
	// closed loop keeps window events in flight per connection.
	rate   float64
	window int
	// maxRate bounds the events a closed loop can send per second; it only
	// sizes the per-connection timestamp arrays.
	maxRate float64

	templates int
	// setups is how many times the programs are launched; setup_s is the
	// median, and the last launch serves the measurement.
	setups int
}

// workloads are the benchmark's traffic mixes; later changes refer to them
// by name, so names and meanings are stable. BENCHMARK.json gives the reason
// for each gated one.
var workloads = []workload{
	{
		// The paper's 15k ev/s on daemon defaults, as an operator sees it:
		// small batches, queueing and the drop policy decide latency and
		// loss. It runs by hand but is not gated in BENCHMARK.json: on a
		// shared 2-core host its open-loop p99 spreads 55-100 % between
		// runs, following the host's stalls and the drops they cause.
		name:   "cta-rate",
		config: "cta", policy: "drop",
		conns: 1, rate: 15000,
		templates: 32, setups: 9,
	},
	{
		name:   "cta-saturate",
		config: "cta", policy: "block",
		conns: 2, window: 128, maxRate: 100000,
		templates: 32, setups: 9,
	},
	{
		name:   "cta-durable",
		config: "cta", policy: "block", gateway: true, record: true,
		conns: 2, window: 128, maxRate: 100000,
		templates: 32, setups: 9,
	},
	{
		name:   "frame-512",
		config: "512x512", policy: "block",
		conns: 2, window: 1, maxRate: 2000,
		templates: 8, setups: 3,
	},
}

func findWorkload(name string) (workload, error) {
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
	}
	return workload{}, fmt.Errorf("unknown workload %q", name)
}

// Daemon calibration settings, passed to hepccld explicitly so the
// in-process reference pipeline calibrates identically.
const (
	calibrationEvents = 20
	calibrationSeed   = 1
	samplesPerChannel = 4
)

// pipelineConfig is the daemon's pipeline configuration for a -config name.
func pipelineConfig(name string) (adapt.Config, error) {
	var cfg adapt.Config
	if name == "cta" {
		cfg = adapt.DefaultCTA()
	} else {
		var rows, cols int
		if n, err := fmt.Sscanf(name, "%dx%d", &rows, &cols); n != 2 || err != nil {
			return cfg, fmt.Errorf("bad frame geometry %q", name)
		}
		cfg = adapt.DefaultFrame(rows, cols)
	}
	cfg.SamplesPerChannel = samplesPerChannel
	return cfg, nil
}

// template is one pre-digitized event: its wire bytes (event id 0), the
// per-frame patchers that rewrite the id, the decoded packets, and the
// downlink record the programs under test must return for it.
type template struct {
	wire     []byte
	frames   []int // frame start offsets into wire, plus len(wire)
	patchers []adapt.FramePatcher
	packets  []adapt.Packet
	ref      []byte
}

// setEventID rewrites the event id of every frame of one copy of the
// template's wire bytes.
func (t *template) setEventID(wire []byte, id uint32) {
	for j, fp := range t.patchers {
		fp.SetEventID(wire[t.frames[j]:t.frames[j+1]], id)
	}
}

// calibration returns the pedestal events hepccld calibrates with.
func calibration(cfg adapt.Config) ([][]adapt.Packet, error) {
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	return adapt.GeneratePedestalEvents(calibrationEvents, cfg.ASICs, dig, detector.NewRNG(calibrationSeed))
}

// truth draws one event's photo-electron image: a CTA shower for camera
// geometries, a field of small blobs at about 2 % occupancy for large
// frames (one shower would light a few hundred of their pixels).
func truth(cfg adapt.Config, rng *detector.RNG) []grid.Value {
	rows, cols := cfg.Detection.TwoD.Rows, cfg.Detection.TwoD.Cols
	var img *grid.Grid
	if rows*cols > adapt.TiledCutoverPixels {
		img = detector.RandomIslands(rows, cols, rows*cols/400, 1.5, rng)
	} else {
		cam := detector.CameraConfig{Rows: rows, Cols: cols, NSBMeanPE: 0.1}
		img = cam.Shower(cam.TypicalShower(rng), rng)
	}
	return img.Flat()
}

// makeTemplates digitizes n distinct events from seed and computes each
// one's reference record under the daemon's calibration. Camera-size events
// take the cycle-level paper pipeline (ProcessEvent + RecordOf, with the §6
// merge-table fix); frames beyond its 256-ASIC limit take the per-pixel
// reference backend.
func makeTemplates(cfg adapt.Config, n int, seed uint64) ([]template, error) {
	cal, err := calibration(cfg)
	if err != nil {
		return nil, err
	}
	refCfg := cfg
	// The published merge-table update splits some concave islands (the
	// paper's §6 corner case); the serving path labels exactly, as the
	// cycle-level model does with the §6 fix.
	refCfg.Detection.TwoD.FixedUpdate = true
	if cfg.ASICs > 256 {
		refCfg.Serve = adapt.ServePixel
	}
	ref, err := adapt.New(refCfg)
	if err != nil {
		return nil, err
	}
	defer ref.Close()
	if err := ref.Calibrate(cal); err != nil {
		return nil, err
	}
	rng := detector.NewRNG(seed)
	dig := detector.DefaultDigitizer()
	dig.Samples = cfg.SamplesPerChannel
	out := make([]template, n)
	for i := range out {
		packets, err := adapt.GenerateEvent(truth(cfg, rng), cfg.ASICs, 0, uint64(i)*1000, dig, rng)
		if err != nil {
			return nil, err
		}
		t := &out[i]
		for p := range packets {
			b, err := packets[p].Marshal()
			if err != nil {
				return nil, err
			}
			fp, err := adapt.NewFramePatcher(b)
			if err != nil {
				return nil, err
			}
			t.frames = append(t.frames, len(t.wire))
			t.patchers = append(t.patchers, fp)
			t.wire = append(t.wire, b...)
		}
		t.frames = append(t.frames, len(t.wire))
		// Decode the wire bytes as the daemon does, so the reference and
		// the traced layers see exactly what was sent.
		if t.packets, err = adapt.NewStreamReader(bytes.NewReader(t.wire)).ReadEvent(cfg.ASICs); err != nil {
			return nil, fmt.Errorf("template %d: %w", i, err)
		}
		var rec adapt.EventRecord
		if cfg.ASICs > 256 {
			err = ref.ServeEvent(t.packets, &rec)
		} else {
			var res *adapt.EventResult
			if res, err = ref.ProcessEvent(t.packets); err == nil {
				rec = adapt.RecordOf(res)
				// The hardware merge table leaves gaps in its labels; the
				// downlink numbers islands 1..K in the same order.
				for k := range rec.Islands {
					rec.Islands[k].Label = int32(k + 1)
				}
			}
		}
		if err != nil {
			return nil, fmt.Errorf("template %d reference: %w", i, err)
		}
		t.ref = rec.Marshal()
	}
	return out, nil
}
