package server

import (
	"container/list"
	"sync"
)

// lruCache is a fixed-capacity least-recently-used response cache. Every
// /v1 response is a pure function of its canonicalized request, so the
// cache needs no expiry — only bounded memory.
type lruCache struct {
	mu    sync.Mutex
	cap   int
	order *list.List // front = most recently used
	items map[string]*list.Element
}

// lruEntry is one cached response keyed by canonical request.
type lruEntry struct {
	key  string
	resp *cachedResponse
}

// newLRUCache builds a cache holding at most capacity entries.
func newLRUCache(capacity int) *lruCache {
	return &lruCache{
		cap:   capacity,
		order: list.New(),
		items: map[string]*list.Element{},
	}
}

// get returns the cached response and marks it most recently used.
func (c *lruCache) get(key string) (*cachedResponse, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	el, ok := c.items[key]
	if !ok {
		return nil, false
	}
	c.order.MoveToFront(el)
	return el.Value.(*lruEntry).resp, true
}

// put inserts or refreshes a response, evicting the least recently used
// entry when over capacity.
func (c *lruCache) put(key string, resp *cachedResponse) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if el, ok := c.items[key]; ok {
		el.Value.(*lruEntry).resp = resp
		c.order.MoveToFront(el)
		return
	}
	c.items[key] = c.order.PushFront(&lruEntry{key: key, resp: resp})
	for c.order.Len() > c.cap {
		oldest := c.order.Back()
		c.order.Remove(oldest)
		delete(c.items, oldest.Value.(*lruEntry).key)
	}
}

// flightGroup deduplicates concurrent identical computations: while one
// caller computes a key, later callers for the same key wait and share
// the result instead of recomputing. This is the stdlib-only analogue of
// x/sync/singleflight.
type flightGroup struct {
	mu sync.Mutex
	m  map[string]*flight
}

// flight is one in-progress computation.
type flight struct {
	wg   sync.WaitGroup
	resp *cachedResponse
	aerr *apiError
	// joined counts the callers that waited on this flight instead of
	// computing; guarded by flightGroup.mu.
	joined int
}

// newFlightGroup builds an empty group.
func newFlightGroup() *flightGroup {
	return &flightGroup{m: map[string]*flight{}}
}

// do runs fn for key, unless an identical call is already in progress,
// in which case it waits for and shares that call's result. Errors are
// shared with waiters but never cached, so a later retry recomputes.
func (g *flightGroup) do(key string, fn func() (*cachedResponse, *apiError)) (*cachedResponse, *apiError) {
	g.mu.Lock()
	if f, ok := g.m[key]; ok {
		f.joined++
		g.mu.Unlock()
		f.wg.Wait()
		return f.resp, f.aerr
	}
	f := &flight{}
	f.wg.Add(1)
	g.m[key] = f
	g.mu.Unlock()

	f.resp, f.aerr = fn()
	f.wg.Done()

	g.mu.Lock()
	delete(g.m, key)
	g.mu.Unlock()
	return f.resp, f.aerr
}
