package server

import (
	"fmt"
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"time"
)

func resp(body string) *cachedResponse {
	return &cachedResponse{status: 200, body: []byte(body)}
}

func TestLRUBasics(t *testing.T) {
	c := newLRUCache(2)
	if _, ok := c.get("a"); ok {
		t.Fatal("empty cache hit")
	}
	c.put("a", resp("A"))
	c.put("b", resp("B"))
	if got, ok := c.get("a"); !ok || string(got.body) != "A" {
		t.Fatalf("get a = %v, %v", got, ok)
	}
	// "a" is now most recently used; inserting "c" evicts "b".
	c.put("c", resp("C"))
	if _, ok := c.get("b"); ok {
		t.Error("b should have been evicted (LRU)")
	}
	if _, ok := c.get("a"); !ok {
		t.Error("a should have survived (recently used)")
	}
	if _, ok := c.get("c"); !ok {
		t.Error("c should be present")
	}
	if n := c.order.Len(); n != 2 {
		t.Errorf("size = %d, want 2", n)
	}
}

func TestLRUOverwrite(t *testing.T) {
	c := newLRUCache(2)
	c.put("a", resp("A1"))
	c.put("a", resp("A2"))
	if got, _ := c.get("a"); string(got.body) != "A2" {
		t.Errorf("overwrite lost: %s", got.body)
	}
	if n := c.order.Len(); n != 1 {
		t.Errorf("size = %d, want 1 after overwrite", n)
	}
}

func TestFlightGroupShares(t *testing.T) {
	g := newFlightGroup()
	const waiters = 16
	var computes atomic.Int32
	// The first computation stays open until every other caller has
	// joined its flight, so all of them must share its result.
	compute := func() (*cachedResponse, *apiError) {
		computes.Add(1)
		deadline := time.Now().Add(10 * time.Second)
		for joinedCallers(g, "key") < waiters-1 {
			if time.Now().After(deadline) {
				t.Errorf("%d of %d callers joined the flight", joinedCallers(g, "key"), waiters-1)
				break
			}
			runtime.Gosched()
		}
		return resp("shared"), nil
	}
	results := make([]*cachedResponse, waiters)
	var done sync.WaitGroup
	for i := 0; i < waiters; i++ {
		done.Add(1)
		go func(slot int) {
			defer done.Done()
			results[slot], _ = g.do("key", compute)
		}(i)
	}
	done.Wait()
	if n := computes.Load(); n != 1 {
		t.Errorf("computes = %d, want 1", n)
	}
	for i, r := range results {
		if r == nil || string(r.body) != "shared" {
			t.Errorf("waiter %d got %v", i, r)
		}
	}
}

// joinedCallers reports how many callers have joined key's open flight.
func joinedCallers(g *flightGroup, key string) int {
	g.mu.Lock()
	defer g.mu.Unlock()
	if f, ok := g.m[key]; ok {
		return f.joined
	}
	return 0
}

func TestFlightGroupErrorNotSticky(t *testing.T) {
	g := newFlightGroup()
	_, aerr := g.do("k", func() (*cachedResponse, *apiError) {
		return nil, errBadRequest("boom")
	})
	if aerr == nil {
		t.Fatal("want error from first flight")
	}
	// The failed flight is deregistered, so a retry recomputes.
	r, aerr := g.do("k", func() (*cachedResponse, *apiError) {
		return resp("ok"), nil
	})
	if aerr != nil || string(r.body) != "ok" {
		t.Fatalf("retry = %v, %v", r, aerr)
	}
}

func TestFlightGroupDistinctKeys(t *testing.T) {
	g := newFlightGroup()
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			key := fmt.Sprintf("k%d", i)
			r, _ := g.do(key, func() (*cachedResponse, *apiError) {
				return resp(key), nil
			})
			if string(r.body) != key {
				t.Errorf("key %s got %s", key, r.body)
			}
		}(i)
	}
	wg.Wait()
}
