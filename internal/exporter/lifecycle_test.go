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
// exporter offers, writes pushes after each handshake, and acks batches.
type configStub struct {
	t      *testing.T
	ln     net.Listener
	pushes []*wire.Config
}

func newConfigStub(t *testing.T, pushes ...*wire.Config) *configStub {
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
	now := time.Now().UnixNano()
	granted := h.Features & (wire.ConfigProperties.Feature() | wire.ConfigFleet.Feature())
	ha := wire.HelloAck{Features: granted, RecvNs: now, SentNs: now}
	if _, err := conn.Write(wire.AppendHelloAck(nil, ha)); err != nil {
		return
	}
	for _, cfg := range s.pushes {
		buf, err := wire.AppendConfig(nil, cfg)
		if err != nil {
			s.t.Error(err)
			return
		}
		if _, err := conn.Write(buf); err != nil {
			return
		}
	}
	for {
		f, err := r.Next()
		if err != nil {
			return
		}
		if b, ok := f.(*wire.Batch); ok {
			if _, err := conn.Write(wire.AppendAck(nil, wire.Ack{AckSeq: b.LastSeq(), SentNs: time.Now().UnixNano()})); err != nil {
				return
			}
		}
	}
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

func startWithHandler(t *testing.T, addr string, k wire.ConfigKind, h func(*wire.Config)) {
	t.Helper()
	cfg := Config{Addr: addr, DPID: 7, BackoffMin: time.Millisecond, BackoffMax: 5 * time.Millisecond}
	cfg.OnConfig[k] = h
	x, err := New(cfg)
	if err != nil {
		t.Fatal(err)
	}
	x.Start()
	t.Cleanup(func() { x.Close(time.Second) })
}

// The exporter relays every pushed config to its kind's handler in
// arrival order, payload intact, for every kind. It judges no epoch: a
// config older than the one before it is handed over too, and the
// handler's stale rule (the federated router's) drops it.
func TestConfigRelayedAsPushed(t *testing.T) {
	for _, k := range configKinds {
		t.Run(k.String(), func(t *testing.T) {
			pushed := []*wire.Config{kindConfig(k, 2, "fw"), kindConfig(k, 1, "old")}
			s := newConfigStub(t, pushed...)
			rec := &configRecorder{}
			startWithHandler(t, s.ln.Addr().String(), k, rec.handle)

			waitFor(t, "both configs handed over", func() bool { return len(rec.snapshot()) >= len(pushed) })
			seen := rec.snapshot()
			if len(seen) != len(pushed) {
				t.Fatalf("handler ran %d times, want %d", len(seen), len(pushed))
			}
			for i, want := range pushed {
				got := seen[i]
				if got.Kind != k || got.Epoch != want.Epoch || got.Source != want.Source ||
					len(got.Props) != len(want.Props) || len(got.Members) != len(want.Members) {
					t.Fatalf("handler config %d = %+v, want %+v", i, got, want)
				}
				for j := range got.Props {
					if got.Props[j] != want.Props[j] {
						t.Fatalf("config %d property %d = %+v, want %+v", i, j, got.Props[j], want.Props[j])
					}
				}
				for j := range got.Members {
					if got.Members[j] != want.Members[j] {
						t.Fatalf("config %d member %d = %+v, want %+v", i, j, got.Members[j], want.Members[j])
					}
				}
			}
		})
	}
}

// Back-to-back configs are applied one at a time in arrival order, even
// when the handler is slow: every pushed epoch, none skipped.
func TestConfigAppliesSerializedPerKind(t *testing.T) {
	const n = 50
	for _, k := range configKinds {
		t.Run(k.String(), func(t *testing.T) {
			burst := make([]*wire.Config, n)
			for i := range burst {
				burst[i] = kindConfig(k, uint64(i+1), "fw")
			}
			s := newConfigStub(t, burst...)
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

			waitFor(t, "the last epoch applied", func() bool {
				mu.Lock()
				defer mu.Unlock()
				return len(epochs) > 0 && epochs[len(epochs)-1] == n
			})
			mu.Lock()
			defer mu.Unlock()
			for i, e := range epochs {
				if e != uint64(i+1) {
					t.Fatalf("handler saw epochs %v, want 1..%d in order", epochs, n)
				}
			}
			if len(epochs) != n {
				t.Fatalf("handler applied %d configs, want %d", len(epochs), n)
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
