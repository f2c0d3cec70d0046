package transport

import (
	"bufio"
	"context"
	"net"
	"sync"
	"sync/atomic"
)

// Server serves a Handler over TCP with a graceful shutdown: it tracks
// every accepted connection and whether it is mid-call, so Shutdown can
// close the listener, drop idle connections immediately, and let
// in-flight RPCs finish instead of dying mid-frame. cmd/islandd fronts
// its worker with one so SIGTERM drains segment calls rather than
// tearing the socket out from under a coordinator.
type Server struct {
	h Handler

	mu       sync.Mutex
	ln       net.Listener
	conns    map[net.Conn]*srvConn
	wg       sync.WaitGroup
	draining atomic.Bool
}

type srvConn struct {
	c    net.Conn
	busy atomic.Bool // a request is being handled right now
}

// NewServer wraps h for serving with drain support.
func NewServer(h Handler) *Server {
	return &Server{h: h, conns: make(map[net.Conn]*srvConn)}
}

// Serve accepts and serves connections (keepalives armed) until the
// listener closes. A close triggered by Shutdown returns nil; any other
// accept error is returned as-is.
func (s *Server) Serve(ln net.Listener) error {
	s.mu.Lock()
	s.ln = ln
	s.mu.Unlock()
	for {
		conn, err := ln.Accept()
		if err != nil {
			if s.draining.Load() {
				return nil
			}
			return err
		}
		enableKeepAlive(conn)
		sc := &srvConn{c: conn}
		s.mu.Lock()
		if s.draining.Load() {
			// Shutdown won the race between Accept and tracking: refuse.
			s.mu.Unlock()
			conn.Close()
			continue
		}
		s.conns[conn] = sc
		s.wg.Add(1)
		s.mu.Unlock()
		go func() {
			defer s.wg.Done()
			s.serveConn(sc)
			s.mu.Lock()
			delete(s.conns, conn)
			s.mu.Unlock()
		}()
	}
}

// serveConn answers requests on one connection until EOF or error, with
// per-request busy tracking and a drain check between calls: once
// Shutdown has been requested, the connection closes at the next request
// boundary instead of accepting more work.
func (s *Server) serveConn(sc *srvConn) {
	defer sc.c.Close()
	br := bufio.NewReader(sc.c)
	bw := bufio.NewWriter(sc.c)
	var scratch []byte
	for {
		req, err := readRequest(br)
		if err != nil {
			return
		}
		if s.draining.Load() {
			// The peer's call raced the drain; a vanished connection is a
			// retryable transport error on its side, unlike a half-written
			// frame.
			return
		}
		sc.busy.Store(true)
		resp, herr := s.h.Handle(context.Background(), req)
		if herr != nil {
			resp = &Response{ID: req.ID, Err: herr.Error()}
		}
		if resp.ID == 0 {
			resp.ID = req.ID
		}
		scratch, err = writeResponse(bw, resp, scratch)
		sc.busy.Store(false)
		if err != nil {
			return
		}
		if s.draining.Load() {
			return
		}
	}
}

// Shutdown drains the server: the listener closes (no new connections),
// idle connections are dropped, and in-flight calls get until ctx's
// deadline to finish before their connections are force-closed. Returns
// ctx.Err() if the deadline expired with calls still running.
func (s *Server) Shutdown(ctx context.Context) error {
	s.draining.Store(true)
	s.mu.Lock()
	if s.ln != nil {
		s.ln.Close()
	}
	for c, sc := range s.conns {
		if !sc.busy.Load() {
			c.Close()
		}
	}
	s.mu.Unlock()

	done := make(chan struct{})
	go func() {
		s.wg.Wait()
		close(done)
	}()
	select {
	case <-done:
		return nil
	case <-ctx.Done():
		s.mu.Lock()
		for c := range s.conns {
			c.Close()
		}
		s.mu.Unlock()
		<-done
		return ctx.Err()
	}
}
