package exporter

import (
	"errors"
	"math/rand"
	"net"
	"sync"
	"testing"
	"time"

	"switchmon/internal/wire"
)

// Close must return promptly while the run loop is asleep in its
// reconnect backoff — the drain wait and the backoff sleep both watch
// closeCh. Regression: with an unreachable collector and a multi-second
// backoff floor, Close used to be on the hook for the full sleep.
func TestCloseDuringBackoffReturnsPromptly(t *testing.T) {
	dials := make(chan struct{}, 16)
	x, err := New(Config{
		DPID: 1,
		Dial: func() (net.Conn, error) {
			select {
			case dials <- struct{}{}:
			default:
			}
			return nil, errors.New("collector unreachable")
		},
		BackoffMin: 30 * time.Second,
		BackoffMax: 60 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	x.Publish(ev(1)) // non-empty queue: the drain wait is also on the clock
	<-dials          // the run loop has failed a dial and entered backoff

	start := time.Now()
	abandoned := x.Close(50 * time.Millisecond)
	if elapsed := time.Since(start); elapsed > 2*time.Second {
		t.Fatalf("Close took %v mid-backoff, want prompt return", elapsed)
	}
	if abandoned != 1 {
		t.Fatalf("abandoned = %d, want 1 (the queued event never shipped)", abandoned)
	}
	if x.Ledger().Sound() {
		t.Fatal("abandoning a queued event must mark the ledger")
	}
}

// configKinds is the table every config test runs over.
var configKinds = []wire.ConfigKind{wire.ConfigProperties, wire.ConfigFleet}

// kindConfig builds a config of kind k at epoch with a payload of that
// kind, so the round trip through the wire is exercised per kind.
func kindConfig(k wire.ConfigKind, epoch uint64, name string) *wire.Config {
	cfg := &wire.Config{Kind: k, Epoch: epoch}
	if k == wire.ConfigProperties {
		cfg.Props = []wire.PropMeta{{Name: name, Tenant: "t1"}, {Name: "nat"}}
		cfg.Source = "property \"" + name + "\" {}\n"
	} else {
		cfg.Members = []wire.FleetMember{{Addr: name, Weight: 1000}, {Addr: "10.0.0.9:9190"}}
	}
	return cfg
}

// configStub is a collector stand-in that grants every config kind the
// exporter offers. Its i-th connection writes pushes[i] after the
// handshake; every connection but the last then hangs up, forcing a
// reconnect, and the last acks batches and records config acks.
type configStub struct {
	t      *testing.T
	ln     net.Listener
	pushes [][]*wire.Config

	mu     sync.Mutex
	hellos int
	acks   []wire.ConfigAck
}

func newConfigStub(t *testing.T, pushes ...[]*wire.Config) *configStub {
	t.Helper()
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	s := &configStub{t: t, ln: ln, pushes: pushes}
	t.Cleanup(func() { ln.Close() })
	go s.acceptLoop()
	return s
}

func (s *configStub) acceptLoop() {
	for {
		conn, err := s.ln.Accept()
		if err != nil {
			return
		}
		go s.serve(conn)
	}
}

func (s *configStub) serve(conn net.Conn) {
	defer conn.Close()
	r := wire.NewPooledReader(conn)
	f, err := r.Next()
	if err != nil {
		return
	}
	h, ok := f.(wire.Hello)
	if !ok {
		return
	}
	s.mu.Lock()
	i := s.hellos
	s.hellos++
	s.mu.Unlock()
	now := time.Now().UnixNano()
	granted := h.Features & (wire.ConfigProperties.Feature() | wire.ConfigFleet.Feature())
	ha := wire.HelloAck{Features: granted, RecvNs: now, SentNs: now}
	if _, err := conn.Write(wire.AppendHelloAck(nil, ha)); err != nil {
		return
	}
	if i < len(s.pushes) {
		for _, cfg := range s.pushes[i] {
			buf, err := wire.AppendConfig(nil, cfg)
			if err != nil {
				s.t.Error(err)
				return
			}
			if _, err := conn.Write(buf); err != nil {
				return
			}
		}
	}
	if i+1 < len(s.pushes) {
		return // hang up: the exporter reconnects for the next script
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		switch fr := f.(type) {
		case wire.ConfigAck:
			s.mu.Lock()
			s.acks = append(s.acks, fr)
			s.mu.Unlock()
		case *wire.Batch:
			if _, err := conn.Write(wire.AppendAck(nil, wire.Ack{AckSeq: fr.LastSeq(), SentNs: time.Now().UnixNano()})); err != nil {
				return
			}
		}
	}
}

func (s *configStub) snapshot() (hellos int, acks []wire.ConfigAck) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.hellos, append([]wire.ConfigAck(nil), s.acks...)
}

// configRecorder is a handler that records the configs it is handed.
type configRecorder struct {
	mu   sync.Mutex
	seen []*wire.Config
}

func (r *configRecorder) handle(cfg *wire.Config) {
	r.mu.Lock()
	r.seen = append(r.seen, cfg)
	r.mu.Unlock()
}

func (r *configRecorder) snapshot() []*wire.Config {
	r.mu.Lock()
	defer r.mu.Unlock()
	return append([]*wire.Config(nil), r.seen...)
}

func startWithHandler(t *testing.T, addr string, k wire.ConfigKind, h func(*wire.Config)) *Exporter {
	t.Helper()
	cfg := Config{Addr: addr, DPID: 7, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond}
	cfg.OnConfig[k] = h
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	t.Cleanup(func() { x.Close(time.Second) })
	return x
}

// The exporter applies pushed configs in epoch order, filters stale
// ones, and acks each applied epoch on the wire — for every kind.
func TestPropertySetPushStaleFilteredAndAcked(t *testing.T) {
	for _, k := range configKinds {
		t.Run(k.String(), func(t *testing.T) {
			fresh := kindConfig(k, 2, "fw")
			stale := kindConfig(k, 1, "old")
			s := newConfigStub(t, []*wire.Config{fresh, stale})
			rec := &configRecorder{}
			x := startWithHandler(t, s.ln.Addr().String(), k, rec.handle)

			waitFor(t, "config ack", func() bool {
				_, acks := s.snapshot()
				return len(acks) >= 1
			})
			seen := rec.snapshot()
			if len(seen) != 1 {
				t.Fatalf("handler ran %d times, want 1 (stale epoch filtered)", len(seen))
			}
			got := seen[0]
			if got.Kind != k || got.Epoch != 2 || got.Source != fresh.Source ||
				len(got.Props) != len(fresh.Props) || len(got.Members) != len(fresh.Members) {
				t.Fatalf("handler config = %+v, want %+v", got, fresh)
			}
			for i := range got.Props {
				if got.Props[i] != fresh.Props[i] {
					t.Fatalf("property %d = %+v, want %+v", i, got.Props[i], fresh.Props[i])
				}
			}
			for i := range got.Members {
				if got.Members[i] != fresh.Members[i] {
					t.Fatalf("member %d = %+v, want %+v", i, got.Members[i], fresh.Members[i])
				}
			}
			if _, acks := s.snapshot(); len(acks) != 1 || acks[0] != (wire.ConfigAck{Kind: k, Epoch: 2}) {
				t.Fatalf("acks = %+v, want exactly [%s epoch 2]", acks, k)
			}
			if st := x.Stats().Configs[k]; st != (wire.HighWater{Epoch: 2, Count: 1}) {
				t.Fatalf("stats %+v, want epoch 2 applied once", st)
			}
		})
	}
}

// A config is applied once however many connections deliver it: the
// collector re-pushes its retained config at every handshake, and an
// equal epoch is stale.
func TestConfigEqualEpochAppliedOnce(t *testing.T) {
	for _, k := range configKinds {
		t.Run(k.String(), func(t *testing.T) {
			cfg := kindConfig(k, 3, "fw")
			s := newConfigStub(t, []*wire.Config{cfg}, []*wire.Config{cfg}, nil)
			rec := &configRecorder{}
			x := startWithHandler(t, s.ln.Addr().String(), k, rec.handle)

			// The third handshake follows the second connection's reader
			// exit, so the repeated push is queued by then; the kind's
			// apply goroutine stops only once its queue is empty.
			waitFor(t, "third connection", func() bool {
				hellos, _ := s.snapshot()
				return hellos >= 3
			})
			waitFor(t, "applies drained", func() bool {
				x.mu.Lock()
				defer x.mu.Unlock()
				return !x.configs[k].running
			})
			if seen := rec.snapshot(); len(seen) != 1 || seen[0].Epoch != 3 {
				t.Fatalf("handler saw %d configs, want the epoch-3 config once", len(seen))
			}
			if st := x.Stats().Configs[k]; st != (wire.HighWater{Epoch: 3, Count: 1}) {
				t.Fatalf("stats %+v, want epoch 3 applied once", st)
			}
		})
	}
}

// Back-to-back configs are applied one at a time in epoch order, even
// when the handler is slow, and the last ack names the last epoch.
func TestConfigAppliesSerializedPerKind(t *testing.T) {
	const n = 50
	for _, k := range configKinds {
		t.Run(k.String(), func(t *testing.T) {
			burst := make([]*wire.Config, n)
			for i := range burst {
				burst[i] = kindConfig(k, uint64(i+1), "fw")
			}
			s := newConfigStub(t, burst)
			rng := rand.New(rand.NewSource(int64(k)))
			var mu sync.Mutex
			var epochs []uint64
			running := false
			startWithHandler(t, s.ln.Addr().String(), k, func(cfg *wire.Config) {
				mu.Lock()
				if running {
					t.Error("two applies of one kind overlap")
				}
				running = true
				d := time.Duration(rng.Intn(8)) * time.Microsecond
				mu.Unlock()
				time.Sleep(d)
				mu.Lock()
				running = false
				epochs = append(epochs, cfg.Epoch)
				mu.Unlock()
			})

			waitFor(t, "ack of the last epoch", func() bool {
				_, acks := s.snapshot()
				return len(acks) > 0 && acks[len(acks)-1].Epoch == n
			})
			mu.Lock()
			defer mu.Unlock()
			for i := 1; i < len(epochs); i++ {
				if epochs[i] <= epochs[i-1] {
					t.Fatalf("handler saw epoch %d after %d: %v", epochs[i], epochs[i-1], epochs)
				}
			}
			_, acks := s.snapshot()
			for i := 1; i < len(acks); i++ {
				if acks[i].Epoch <= acks[i-1].Epoch {
					t.Fatalf("ack epoch %d after %d: acks are a high-water mark", acks[i].Epoch, acks[i-1].Epoch)
				}
			}
			if last := epochs[len(epochs)-1]; last != n {
				t.Fatalf("last applied epoch %d, want %d", last, n)
			}
		})
	}
}

// The Hello offers exactly the feature bits of the kinds with a handler,
// so a collector never pushes a kind the exporter cannot apply.
func TestNoLifecycleOfferWithoutCallback(t *testing.T) {
	props, fleet := wire.ConfigProperties.Feature(), wire.ConfigFleet.Feature()
	for _, tc := range []struct {
		name  string
		kinds []wire.ConfigKind
		want  uint64
	}{
		{"none", nil, 0},
		{"properties", []wire.ConfigKind{wire.ConfigProperties}, props},
		{"fleet", []wire.ConfigKind{wire.ConfigFleet}, fleet},
		{"both", configKinds, props | fleet},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := newStubServer(t)
			cfg := Config{Addr: s.addr(), DPID: 3}
			for _, k := range tc.kinds {
				cfg.OnConfig[k] = func(*wire.Config) {}
			}
			x, err := New(cfg)
			if err != nil {
				t.Fatal(err)
			}
			x.Start()
			defer x.Close(time.Second)
			waitFor(t, "hello", func() bool {
				hellos, _ := s.snapshot()
				return len(hellos) >= 1
			})
			hellos, _ := s.snapshot()
			if got := hellos[0].Features; got != tc.want {
				t.Fatalf("hello features %b, want %b", got, tc.want)
			}
		})
	}
}
