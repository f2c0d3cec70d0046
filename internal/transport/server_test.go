package transport

import (
	"context"
	"net"
	"sync"
	"testing"
	"time"
)

// countHandler counts calls and answers each with an empty response; an
// optional gate blocks each call until released so tests can hold a
// call in flight.
type countHandler struct {
	mu    sync.Mutex
	gate  chan struct{}
	calls int
}

func (h *countHandler) Handle(ctx context.Context, req *Request) (*Response, error) {
	h.mu.Lock()
	h.calls++
	gate := h.gate
	h.mu.Unlock()
	if gate != nil {
		<-gate
	}
	return &Response{ID: req.ID}, nil
}

func (h *countHandler) count() int {
	h.mu.Lock()
	defer h.mu.Unlock()
	return h.calls
}

// TestKeepAliveEnabled: dialed and accepted TCP connections get
// keepalives armed; non-TCP conns are tolerated.
func TestKeepAliveEnabled(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	accepted := make(chan net.Conn, 1)
	go func() {
		c, err := ln.Accept()
		if err == nil {
			accepted <- c
		}
	}()
	c, err := net.Dial("tcp", ln.Addr().String())
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if !enableKeepAlive(c) {
		t.Error("enableKeepAlive failed on a dialed TCP conn")
	}
	srv := <-accepted
	defer srv.Close()
	if !enableKeepAlive(srv) {
		t.Error("enableKeepAlive failed on an accepted TCP conn")
	}
	p1, p2 := net.Pipe()
	defer p1.Close()
	defer p2.Close()
	if enableKeepAlive(p1) {
		t.Error("enableKeepAlive claimed success on a net.Pipe conn")
	}
}

// TestIdleConnectionSurvives: a healthy connection left idle between
// calls keeps working — keepalives must detect dead peers, not kill
// live-but-quiet ones.
func TestIdleConnectionSurvives(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &countHandler{}
	srv := NewServer(h)
	go srv.Serve(ln)
	defer srv.Shutdown(context.Background())

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	ctx := context.Background()
	if _, err := c.Call(ctx, &Request{ID: 1, Kind: kindBare}); err != nil {
		t.Fatalf("first call: %v", err)
	}
	time.Sleep(250 * time.Millisecond) // idle gap
	if _, err := c.Call(ctx, &Request{ID: 2, Kind: kindBare}); err != nil {
		t.Fatalf("call after idle gap: %v", err)
	}
	if h.count() != 2 {
		t.Fatalf("handler saw %d calls, want 2", h.count())
	}
}

// TestServerDrainsInFlightCall: Shutdown lets a call already being
// handled finish and deliver its response, while refusing new work.
func TestServerDrainsInFlightCall(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	gate := make(chan struct{})
	h := &countHandler{gate: gate}
	srv := NewServer(h)
	serveDone := make(chan error, 1)
	go func() { serveDone <- srv.Serve(ln) }()

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()

	callDone := make(chan error, 1)
	go func() {
		_, err := c.Call(context.Background(), &Request{ID: 7, Kind: kindBare})
		callDone <- err
	}()
	// Wait until the handler holds the call.
	for i := 0; h.count() == 0 && i < 200; i++ {
		time.Sleep(time.Millisecond)
	}
	if h.count() == 0 {
		t.Fatal("call never reached the handler")
	}

	shutDone := make(chan error, 1)
	go func() {
		ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
		defer cancel()
		shutDone <- srv.Shutdown(ctx)
	}()
	time.Sleep(20 * time.Millisecond) // let Shutdown close the listener
	close(gate)                       // release the in-flight call

	if err := <-callDone; err != nil {
		t.Fatalf("in-flight call lost during drain: %v", err)
	}
	if err := <-shutDone; err != nil {
		t.Fatalf("shutdown: %v", err)
	}
	if err := <-serveDone; err != nil {
		t.Fatalf("serve returned %v after drain, want nil", err)
	}
	// New connections are refused after the drain.
	if _, err := Dial(ln.Addr().String(), 200*time.Millisecond); err == nil {
		t.Fatal("dial succeeded after shutdown")
	}
}

// TestServerDropsIdleConnsOnShutdown: a connection with no call in
// flight is closed immediately rather than holding the drain open.
func TestServerDropsIdleConnsOnShutdown(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	h := &countHandler{}
	srv := NewServer(h)
	go srv.Serve(ln)

	c, err := Dial(ln.Addr().String(), time.Second)
	if err != nil {
		t.Fatal(err)
	}
	defer c.Close()
	if _, err := c.Call(context.Background(), &Request{ID: 1, Kind: kindBare}); err != nil {
		t.Fatal(err)
	}

	start := time.Now()
	ctx, cancel := context.WithTimeout(context.Background(), 5*time.Second)
	defer cancel()
	if err := srv.Shutdown(ctx); err != nil {
		t.Fatalf("shutdown with only an idle conn: %v", err)
	}
	if d := time.Since(start); d > 2*time.Second {
		t.Fatalf("idle-conn shutdown took %v", d)
	}
}
