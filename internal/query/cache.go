package query

import (
	"container/list"
	"slices"
	"strconv"

	"repro/internal/tsdb"
)

// entry is one cached window: the merged (and LTTB-bounded) series for
// the expanded window, tagged with the metric write version observed
// before the fill. An entry whose version trails the current watermark
// is stale and treated as a miss.
type entry struct {
	key     string
	series  []tsdb.Series
	version uint64
}

// lru is a plain intrusive LRU over cache entries. It is not
// self-locking: the Engine serializes access under its own mutex.
type lru struct {
	max int
	ll  *list.List               // front = most recent
	m   map[string]*list.Element // key → element holding *entry
}

func newLRU(max int) *lru {
	return &lru{max: max, ll: list.New(), m: make(map[string]*list.Element, max)}
}

// get looks key up and marks it most-recently-used. The []byte key
// avoids a heap string on the hit path (the compiler elides the
// conversion inside a map index expression).
func (l *lru) get(key []byte) (*entry, bool) {
	el, ok := l.m[string(key)]
	if !ok {
		return nil, false
	}
	l.ll.MoveToFront(el)
	return el.Value.(*entry), true
}

// add inserts or replaces key's entry and evicts from the cold end
// past capacity.
func (l *lru) add(e *entry) {
	if el, ok := l.m[e.key]; ok {
		el.Value = e
		l.ll.MoveToFront(el)
		return
	}
	l.m[e.key] = l.ll.PushFront(e)
	for l.ll.Len() > l.max {
		old := l.ll.Back()
		l.ll.Remove(old)
		delete(l.m, old.Value.(*entry).key)
	}
}

// keyScratch builds cache keys without per-query allocations. It is
// owned by the Engine and used only under its mutex; the buffers grow
// once and are reused for every subsequent query.
type keyScratch struct {
	buf  []byte
	tags []string
}

// key renders the canonical cache identity
// metric\x00k=v\x00...\x00from|to|downsample|agg|maxpoints into the
// scratch buffer and returns it. The slice is valid until the next
// call.
func (k *keyScratch) key(q *tsdb.Query) []byte {
	b := k.buf[:0]
	b = append(b, q.Metric...)
	b = append(b, 0)
	k.tags = k.tags[:0]
	for tag := range q.Tags {
		k.tags = append(k.tags, tag)
	}
	slices.Sort(k.tags)
	for _, tag := range k.tags {
		b = append(b, tag...)
		b = append(b, '=')
		b = append(b, q.Tags[tag]...)
		b = append(b, 0)
	}
	b = strconv.AppendInt(b, q.Start, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, q.End, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, q.DownsampleSeconds, 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.Aggregate), 10)
	b = append(b, '|')
	b = strconv.AppendInt(b, int64(q.MaxPoints), 10)
	k.buf = b
	return b
}

// flight is one in-progress fetch that concurrent identical queries
// wait on instead of re-scanning storage (singleflight). degraded marks
// a stale-cache serve so followers inherit the degraded flag too.
type flight struct {
	done     chan struct{}
	series   []tsdb.Series
	err      error
	degraded bool
}
