package mpi

import (
	"errors"
	"fmt"
	"sync"
	"testing"
	"time"
)

// eachTransport runs fn as a subtest over an n-rank world of every
// transport: the in-process chan hand-off and loopback TCP. Endpoint
// semantics must not depend on which one delivers.
func eachTransport(t *testing.T, n int, fn func(t *testing.T, w *World)) {
	t.Helper()
	for _, name := range []string{"chan", "tcp"} {
		t.Run(name, func(t *testing.T) {
			w := NewWorld(n)
			if name == "tcp" {
				var err error
				if w, err = NewTCPWorld(n); err != nil {
					t.Fatal(err)
				}
			}
			defer w.Close()
			fn(t, w)
		})
	}
}

// TestIsendStorm: a burst of in-flight Isends from every rank into one
// ANY_SOURCE receiver, all waited, each message delivered exactly once.
func TestIsendStorm(t *testing.T) {
	const senders = 3
	const burst = 64
	eachTransport(t, senders+1, func(t *testing.T, w *World) {
		var wg sync.WaitGroup
		for s := 1; s <= senders; s++ {
			wg.Add(1)
			go func(rank int) {
				defer wg.Done()
				c := w.Comm(rank)
				reqs := make([]*Request, 0, burst)
				for i := 0; i < burst; i++ {
					reqs = append(reqs, c.Isend(0, rank, []byte(fmt.Sprintf("r%d-i%03d", rank, i))))
				}
				for i, r := range reqs {
					if _, _, err := r.Wait(); err != nil {
						t.Errorf("rank %d isend %d: %v", rank, i, err)
						return
					}
				}
			}(s)
		}
		c := w.Comm(0)
		seen := map[string]bool{}
		for i := 0; i < senders*burst; i++ {
			data, st, err := c.Recv(AnySource, AnyTag)
			if err != nil {
				t.Fatalf("recv %d: %v", i, err)
			}
			if st.Tag != st.Source || seen[string(data)] {
				t.Fatalf("recv %d: %q (source %d, tag %d) mislabelled or duplicated", i, data, st.Source, st.Tag)
			}
			seen[string(data)] = true
		}
		wg.Wait()
		for s := 1; s <= senders; s++ {
			for i := 0; i < burst; i++ {
				if msg := fmt.Sprintf("r%d-i%03d", s, i); !seen[msg] {
					t.Fatalf("%s never delivered", msg)
				}
			}
		}
	})
}

// TestCloseUnblocksBlockedReceivers: closing the world fails a receiver
// blocked in Recv and one blocked in Probe with ErrWorldClosed instead of
// leaving them parked.
func TestCloseUnblocksBlockedReceivers(t *testing.T) {
	eachTransport(t, 2, func(t *testing.T, w *World) {
		errc := make(chan error, 2)
		go func() {
			_, _, err := w.Comm(1).Recv(0, 1)
			errc <- err
		}()
		go func() {
			_, err := w.Comm(1).Probe(AnySource, 2)
			errc <- err
		}()
		time.Sleep(20 * time.Millisecond) // both are parked now
		w.Close()
		for i := 0; i < 2; i++ {
			select {
			case err := <-errc:
				if !errors.Is(err, ErrWorldClosed) {
					t.Fatalf("blocked receiver returned %v, want ErrWorldClosed", err)
				}
			case <-time.After(5 * time.Second):
				t.Fatal("receiver still blocked after Close")
			}
		}
	})
}
