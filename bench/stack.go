package main

import (
	"bytes"
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"net/http"
	"time"

	"bomw/internal/cluster"
	"bomw/internal/core"
	"bomw/internal/models"
	"bomw/internal/server"
)

// stack is exactly what cmd/bomwsrv serves with its default flags: a
// scheduler trained on models.AllModels with seed 1, the five paper
// models loaded with seed 1, a one-node fleet behind the HTTP API, on a
// loopback listener — stood up inside the harness's own process.
type stack struct {
	sched  *core.Scheduler
	api    *server.Server
	srv    *http.Server
	served chan error
	url    string
	client *http.Client
}

// buildStack is one cold set-up: it returns once the first 200 has been
// read from the listener.
func buildStack() (*stack, error) {
	sched, err := core.New(core.Config{TrainModels: models.AllModels(), Seed: 1})
	if err != nil {
		return nil, fmt.Errorf("training scheduler: %w", err)
	}
	for _, spec := range models.PaperModels() {
		if err := sched.LoadModel(spec, 1); err != nil {
			return nil, fmt.Errorf("loading %s: %w", spec.Name, err)
		}
	}
	api, err := server.NewCluster(sched, 1, core.PipelineConfig{}, 1, cluster.Config{})
	if err != nil {
		return nil, fmt.Errorf("building fleet: %w", err)
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		api.Close()
		return nil, fmt.Errorf("listening: %w", err)
	}
	s := &stack{
		sched:  sched,
		api:    api,
		srv:    &http.Server{Handler: api},
		served: make(chan error, 1),
		url:    "http://" + ln.Addr().String() + "/v1/classify",
		// At most two keep-alive connections: the box has two CPUs and
		// the generator shares them with the server.
		client: &http.Client{Transport: &http.Transport{MaxIdleConnsPerHost: 2, MaxConnsPerHost: 2}},
	}
	go func() { s.served <- s.srv.Serve(ln) }()
	body := []byte(`{"model":"simple","samples":[[0.5,0.5,0.5,0.5]]}`)
	if _, err := s.post(body); err != nil {
		s.close()
		return nil, fmt.Errorf("first request: %w", err)
	}
	return s, nil
}

// post sends one classify body and returns the response body of a 200.
func (s *stack) post(body []byte) ([]byte, error) {
	resp, err := s.client.Post(s.url, "application/json", bytes.NewReader(body))
	if err != nil {
		return nil, err
	}
	defer resp.Body.Close()
	out, err := io.ReadAll(resp.Body)
	if err != nil {
		return nil, err
	}
	if resp.StatusCode != http.StatusOK {
		return nil, fmt.Errorf("status %d: %s", resp.StatusCode, bytes.TrimSpace(out))
	}
	return out, nil
}

// close stops the listener, drains the fleet and waits for the serve
// goroutine, in the order cmd/bomwsrv shuts down.
func (s *stack) close() error {
	s.client.CloseIdleConnections()
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := s.srv.Shutdown(ctx)
	s.api.Close()
	if serr := <-s.served; serr != nil && !errors.Is(serr, http.ErrServerClosed) && err == nil {
		err = serr
	}
	return err
}

// measureSetup builds the stack `builds` times, closing each but the
// last, and returns the last one with every build's duration. The
// run's setup_s is the fastest of them: interference only ever
// lengthens a build.
func measureSetup(builds int) (*stack, []time.Duration, error) {
	var took []time.Duration
	for i := 0; ; i++ {
		t0 := time.Now()
		s, err := buildStack()
		if err != nil {
			return nil, nil, err
		}
		took = append(took, time.Since(t0))
		if i == builds-1 {
			return s, took, nil
		}
		if err := s.close(); err != nil {
			return nil, nil, fmt.Errorf("closing set-up %d: %w", i, err)
		}
	}
}
