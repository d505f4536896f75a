// Package lru is the tree's one bounded store: a map in recency order with
// an entry bound and a byte bound, evicting the least recently used. The
// plan cache and the answer cache are its two keyings; what an entry means,
// when it is stale and who may touch it at once are theirs. A Store has no lock of its own.
package lru

import "container/list"

// Store maps keys to values, each stored at a cost the caller states.
type Store[K comparable, V any] struct {
	maxEntries int
	maxBytes   int64
	onEvict    func(K, V)
	entries    map[K]*list.Element // of *entry[K, V]
	order      *list.List          // front = most recently used
	bytes      int64
}

type entry[K comparable, V any] struct {
	key  K
	val  V
	cost int64
}

// New returns an empty store holding at most maxEntries entries and maxBytes
// of stated cost; a bound that is zero or negative does not bind. onEvict,
// when not nil, is told each entry the store gives up to stay within its
// bounds (not the ones Remove or a replacing Put take out).
func New[K comparable, V any](maxEntries int, maxBytes int64, onEvict func(K, V)) *Store[K, V] {
	return &Store[K, V]{
		maxEntries: maxEntries,
		maxBytes:   maxBytes,
		onEvict:    onEvict,
		entries:    map[K]*list.Element{},
		order:      list.New(),
	}
}

// Get returns the value stored under key and marks it most recently used.
func (s *Store[K, V]) Get(key K) (val V, ok bool) {
	el, ok := s.entries[key]
	if ok {
		s.order.MoveToFront(el)
		val = el.Value.(*entry[K, V]).val
	}
	return val, ok
}

// Put stores val under key at the given cost, as the most recently used,
// replacing what was there. Least recently used entries are then evicted
// until both bounds hold. A value whose cost alone is past the byte bound is
// evicted at once, and takes nothing else with it.
func (s *Store[K, V]) Put(key K, val V, cost int64) {
	s.Remove(key)
	if s.maxBytes > 0 && cost > s.maxBytes {
		s.evicted(key, val)
		return
	}
	s.entries[key] = s.order.PushFront(&entry[K, V]{key: key, val: val, cost: cost})
	s.bytes += cost
	for (s.maxEntries > 0 && len(s.entries) > s.maxEntries) || (s.maxBytes > 0 && s.bytes > s.maxBytes) {
		back := s.order.Back().Value.(*entry[K, V])
		s.Remove(back.key)
		s.evicted(back.key, back.val)
	}
}

// Remove drops the entry under key and reports whether there was one.
func (s *Store[K, V]) Remove(key K) bool {
	el, ok := s.entries[key]
	if ok {
		delete(s.entries, key)
		s.bytes -= s.order.Remove(el).(*entry[K, V]).cost
	}
	return ok
}

// Len is the number of entries held.
func (s *Store[K, V]) Len() int { return len(s.entries) }

// Bytes is the summed cost of the entries held.
func (s *Store[K, V]) Bytes() int64 { return s.bytes }

func (s *Store[K, V]) evicted(key K, val V) {
	if s.onEvict != nil {
		s.onEvict(key, val)
	}
}
