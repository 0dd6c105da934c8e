package main

import (
	"bytes"
	"errors"
	"fmt"
	"io"
	"net"
	"runtime"
	"sync"
	"syscall"
	"time"

	"github.com/wustl-adapt/hepccl/internal/adapt"
)

// Event ids carry the connection in their top bits so every record maps
// back to exactly one send; connection warmConn is reserved for warm-ups.
const (
	seqBits  = 28
	seqMask  = 1<<seqBits - 1
	warmConn = 15
)

// ioTimeout bounds every socket read and write: a stalled program under
// test fails the run instead of hanging it.
const ioTimeout = 30 * time.Second

// loadSpec is what one measurement drives: the templates and the loop shape.
type loadSpec struct {
	templs  []template
	conns   int
	rate    float64 // > 0: open loop, aggregate events/s
	window  int     // closed loop: events in flight per connection
	maxRate float64
	seconds float64
}

// connLoad is one connection's bookkeeping. The sender owns due and sent,
// the reader owns arrive and the verdict counters; neither reads the
// other's arrays until both have returned.
type connLoad struct {
	id int
	// due[i] is when event i was meant to go out (ns since the shared
	// start): its schedule slot in an open loop, the moment its window slot
	// freed in a closed loop. sent[i] is when its write returned; arrive[i]
	// when its record arrived (0 if none did).
	due, sent, arrive []int64
	nsent             int

	mismatched int // records whose bytes differ from the reference
	unknown    int // records for ids never sent, or sent twice
	err        error
}

// loadResult is the verdict of one measurement.
type loadResult struct {
	offered, served, mismatched, unknown int
	// samples holds one entry per answered event.
	samples []sample
	// from and to bound the steady part of the measurement: the first send
	// and the end of sending (the last scheduled send of an open loop, the
	// stop time of a closed loop).
	from, to int64
	openLoop bool
	errs     []error
}

// sample is one answered event's timeline, ns since the shared start.
type sample struct {
	due, sent, arrive int64
}

// lat is the sample's end-to-end latency: from the scheduled send in an open
// loop, so a stall that delays later sends counts against them; a closed
// loop has no schedule and times from the actual send.
func (s sample) lat(openLoop bool) int64 {
	if openLoop {
		return s.arrive - s.due
	}
	return s.arrive - s.sent
}

// lag is how late the generator sent the event.
func (s sample) lag() int64 { return s.sent - s.due }

// clock returns nanoseconds since t0 on the monotonic clock.
type clock struct{ t0 time.Time }

func (c clock) now() int64 { return int64(time.Since(c.t0)) }

// runLoad drives addr with spec and returns the verdict. Every connection
// is closed and every goroutine has returned when it returns.
func runLoad(addr string, spec loadSpec) loadResult {
	perConn := 0
	if spec.rate > 0 {
		perConn = int(spec.rate / float64(spec.conns) * spec.seconds)
	} else {
		perConn = int(spec.maxRate/float64(spec.conns)*spec.seconds) + spec.window
	}
	conns := make([]*connLoad, spec.conns)
	var wg sync.WaitGroup
	clk := clock{t0: time.Now()}
	for c := range conns {
		cl := &connLoad{
			id:     c,
			due:    make([]int64, perConn),
			sent:   make([]int64, perConn),
			arrive: make([]int64, perConn),
		}
		conns[c] = cl
		wg.Add(1)
		go func() {
			defer wg.Done()
			cl.drive(addr, spec, clk)
		}()
	}
	wg.Wait()
	return summarize(conns, spec)
}

// summarize turns the per-connection arrays into the measurement verdict.
func summarize(conns []*connLoad, spec loadSpec) loadResult {
	r := loadResult{openLoop: spec.rate > 0, from: -1}
	for _, cl := range conns {
		if cl.err != nil {
			r.errs = append(r.errs, fmt.Errorf("conn %d: %w", cl.id, cl.err))
		}
		r.offered += cl.nsent
		r.mismatched += cl.mismatched
		r.unknown += cl.unknown
		for i := 0; i < cl.nsent; i++ {
			if r.from < 0 || cl.sent[i] < r.from {
				r.from = cl.sent[i]
			}
			if r.openLoop && cl.due[i] > r.to {
				r.to = cl.due[i]
			}
			if cl.arrive[i] != 0 {
				r.samples = append(r.samples, sample{due: cl.due[i], sent: cl.sent[i], arrive: cl.arrive[i]})
			}
		}
	}
	if !r.openLoop {
		r.to = int64(spec.seconds * float64(time.Second))
	}
	// Mismatched records arrived but are not correct: they count as failed.
	r.served = len(r.samples) - r.mismatched
	return r
}

// drive runs one connection: a sender goroutine and the record reader on
// this goroutine.
func (cl *connLoad) drive(addr string, spec loadSpec, clk clock) {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		cl.err = err
		return
	}
	defer nc.Close()
	var tokens chan int64
	if spec.rate <= 0 {
		// One token per in-flight slot; the reader returns one per record.
		tokens = make(chan int64, spec.window)
		for i := 0; i < spec.window; i++ {
			tokens <- 0
		}
	}
	stop := make(chan struct{})
	sendErr := make(chan error, 1)
	go func() {
		err := cl.send(nc, spec, clk, tokens, stop)
		// Half-close: the server drains what it has and then ends the
		// record stream, which ends the reader.
		if tc, ok := nc.(*net.TCPConn); ok {
			tc.CloseWrite()
		}
		sendErr <- err
	}()
	rerr := cl.read(nc, spec.templs, clk, tokens)
	close(stop)
	if rerr != nil {
		// Unblock a sender stuck on a full socket.
		nc.Close()
	}
	serr := <-sendErr
	cl.err = errors.Join(serr, rerr)
}

// maxWriteBatch bounds how many events go out in one vectored write. A
// batch never holds two events of the same template, because each
// connection patches ids into a single private copy per template.
const maxWriteBatch = 32

func (cl *connLoad) send(nc net.Conn, spec loadSpec, clk clock, tokens chan int64, stop chan struct{}) error {
	nt := len(spec.templs)
	wires := make([][]byte, nt)
	for i := range wires {
		wires[i] = append([]byte(nil), spec.templs[i].wire...)
	}
	batchMax := min(maxWriteBatch, nt)
	bufs := make(net.Buffers, 0, batchMax)
	base := uint32(cl.id) << seqBits
	n := len(cl.sent)
	open := spec.rate > 0
	var period float64
	if open {
		// Sleep on a dedicated thread with nanosleep and minimal timer
		// slack: the runtime timer wakes about a millisecond late, which
		// would be the generator's lag, not the server's.
		runtime.LockOSThread()
		defer runtime.UnlockOSThread()
		syscall.RawSyscall(syscall.SYS_PRCTL, syscall.PR_SET_TIMERSLACK, 1, 0)
		period = float64(time.Second) * float64(spec.conns) / spec.rate
	}
	stopAt := int64(spec.seconds * float64(time.Second))
	for i := 0; i < n; {
		j := i
		if open {
			now := clk.now()
			if due := dueAt(i, period); due > now {
				ts := syscall.NsecToTimespec(due - now)
				syscall.Nanosleep(&ts, nil)
				continue
			}
			for j < n && j-i < batchMax {
				due := dueAt(j, period)
				if due > now {
					break
				}
				cl.due[j] = due
				j++
			}
		} else {
			if clk.now() >= stopAt {
				break
			}
			select {
			case <-stop:
				return nil
			case freed := <-tokens:
				cl.due[j] = freed
				j++
			}
		gather:
			for j < n && j-i < batchMax {
				select {
				case freed := <-tokens:
					cl.due[j] = freed
					j++
				default:
					break gather
				}
			}
		}
		bufs = bufs[:0]
		for k := i; k < j; k++ {
			t := &spec.templs[k%nt]
			w := wires[k%nt]
			t.setEventID(w, base|uint32(k))
			bufs = append(bufs, w)
		}
		nc.SetWriteDeadline(time.Now().Add(ioTimeout))
		if _, err := bufs.WriteTo(nc); err != nil {
			return fmt.Errorf("write events %d..%d: %w", i, j-1, err)
		}
		now := clk.now()
		for k := i; k < j; k++ {
			if !open && cl.due[k] == 0 {
				cl.due[k] = now // initial window: the slot was free at once
			}
			cl.sent[k] = now
		}
		i = j
		cl.nsent = i
	}
	if !open && cl.nsent == n {
		return fmt.Errorf("closed loop filled its %d-event arrays; raise maxRate", n)
	}
	return nil
}

// paceTick is the open loop's schedule granularity: the events of each tick
// are due together at its start and go out in one write, the way a readout
// ships what one trigger window collected.
const paceTick = int64(time.Millisecond)

// dueAt is event i's scheduled send time at one event per period ns.
func dueAt(i int, period float64) int64 {
	return int64(float64(i)*period) / paceTick * paceTick
}

// read consumes records until the server ends the stream, checking each
// against its template's reference.
func (cl *connLoad) read(nc net.Conn, templs []template, clk clock, tokens chan int64) error {
	sc := adapt.NewRecordScanner(nc, adapt.NewDeadlineRearmer(nc, ioTimeout))
	for {
		rec, err := sc.Next()
		if err == io.EOF {
			return nil
		}
		if err != nil {
			return err
		}
		now := clk.now()
		id := adapt.RecordEventID(rec)
		seq := int(id & seqMask)
		if int(id>>seqBits) != cl.id || seq >= len(cl.arrive) || cl.arrive[seq] != 0 {
			cl.unknown++
			continue
		}
		cl.arrive[seq] = now
		if !bytes.Equal(rec[4:], templs[seq%len(templs)].ref[4:]) {
			cl.mismatched++
		}
		if tokens != nil {
			tokens <- now
		}
	}
}

// warmUp sends one event on a fresh connection and waits for its record:
// the first correct record ends a launch's set-up time.
func warmUp(addr string, t *template, k int) error {
	nc, err := net.DialTimeout("tcp", addr, ioTimeout)
	if err != nil {
		return err
	}
	defer nc.Close()
	id := uint32(warmConn)<<seqBits | uint32(k)
	wire := append([]byte(nil), t.wire...)
	t.setEventID(wire, id)
	nc.SetDeadline(time.Now().Add(ioTimeout))
	if _, err := nc.Write(wire); err != nil {
		return fmt.Errorf("warm-up write: %w", err)
	}
	rec, err := adapt.NewRecordScanner(nc, nil).Next()
	if err != nil {
		return fmt.Errorf("warm-up record: %w", err)
	}
	if adapt.RecordEventID(rec) != id || !bytes.Equal(rec[4:], t.ref[4:]) {
		return fmt.Errorf("warm-up record for event %#x does not match its reference", id)
	}
	return nil
}
