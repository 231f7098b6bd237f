package tsdb

import (
	"fmt"
	"sync"
	"sync/atomic"

	"repro/internal/hbase"
)

// UID widths match OpenTSDB: 3 bytes each for metrics, tag keys and
// tag values.
const uidWidth = 3

// uidKind namespaces the three UID dictionaries.
type uidKind byte

const (
	kindMetric uidKind = 'm'
	kindTagK   uidKind = 'k'
	kindTagV   uidKind = 'v'
)

// metaPrefix reserves a key range above all data rows for UID state
// (data row keys never start with 0xFF: salts and metric UIDs stay
// below it).
const metaPrefix = 0xFF

// UIDTable interns strings to fixed-width ids and back, persisting
// assignments in the HBase table so they survive TSD restarts (real
// OpenTSDB keeps them in the tsdb-uid table). Allocation is
// coordinated in-process with a mutex standing in for HBase's atomic
// increment; the persisted rows are the source of truth on reload.
type UIDTable struct {
	client *hbase.Client

	// mu is an RWMutex because the ingest hot path interns the same
	// few names millions of times: lookups take the read lock,
	// allocation the write lock.
	mu      sync.RWMutex
	forward map[uidKind]map[string]uint32
	next    map[uidKind]uint32
	// names is each kind's reverse dictionary: an id-indexed slice
	// ("" = unassigned; names are never empty) published through an
	// atomic pointer, so Name — once per decoded row — takes no lock.
	// Writers hold mu and either write only past the published length
	// or publish a fresh slice, so a reader's view never changes under
	// it. The map itself is fixed at construction.
	names map[uidKind]*atomic.Pointer[[]string]
}

// NewUIDTable returns a UID table writing through cl.
func NewUIDTable(cl *hbase.Client) *UIDTable {
	u := &UIDTable{client: cl, names: make(map[uidKind]*atomic.Pointer[[]string])}
	u.forward, u.next = emptyDicts()
	for _, kind := range []uidKind{kindMetric, kindTagK, kindTagV} {
		u.names[kind] = new(atomic.Pointer[[]string])
		u.names[kind].Store(new([]string))
	}
	return u
}

// emptyDicts returns empty forward and next-id dictionaries for every
// kind.
func emptyDicts() (map[uidKind]map[string]uint32, map[uidKind]uint32) {
	return map[uidKind]map[string]uint32{kindMetric: {}, kindTagK: {}, kindTagV: {}},
		map[uidKind]uint32{kindMetric: 1, kindTagK: 1, kindTagV: 1}
}

// setName records id → name in kind's reverse slice and publishes it.
// Callers hold mu and pass an id at or past the published length.
func (u *UIDTable) setName(kind uidKind, id uint32, name string) {
	s := withName(*u.names[kind].Load(), id, name)
	u.names[kind].Store(&s)
}

// withName returns s with s[id] = name, growing it as needed.
func withName(s []string, id uint32, name string) []string {
	for uint32(len(s)) <= id {
		s = append(s, "")
	}
	s[id] = name
	return s
}

// uidRow builds the persistence row key for one assignment.
func uidRow(kind uidKind, name string) []byte {
	row := []byte{metaPrefix, 'u', byte(kind)}
	return append(row, name...)
}

// GetOrCreate interns name, allocating and persisting a new UID on
// first sight.
func (u *UIDTable) GetOrCreate(kind uidKind, name string) (uint32, error) {
	u.mu.RLock()
	id, ok := u.forward[kind][name]
	u.mu.RUnlock()
	if ok {
		return id, nil
	}
	u.mu.Lock()
	if id, ok := u.forward[kind][name]; ok {
		u.mu.Unlock()
		return id, nil
	}
	id = u.next[kind]
	if id >= 1<<(8*uidWidth) {
		u.mu.Unlock()
		return 0, fmt.Errorf("tsdb: uid space exhausted for kind %c", kind)
	}
	u.next[kind] = id + 1
	u.forward[kind][name] = id
	u.setName(kind, id, name)
	u.mu.Unlock()

	var val [uidWidth]byte
	putUID(val[:], id)
	cell := hbase.Cell{Row: uidRow(kind, name), Qual: []byte{'u'}, Value: val[:]}
	if err := u.client.Put([]hbase.Cell{cell}); err != nil {
		return 0, fmt.Errorf("tsdb: persist uid %q: %w", name, err)
	}
	return id, nil
}

// Lookup returns the UID for name without allocating.
func (u *UIDTable) Lookup(kind uidKind, name string) (uint32, bool) {
	u.mu.RLock()
	defer u.mu.RUnlock()
	id, ok := u.forward[kind][name]
	return id, ok
}

// Name resolves a UID back to its string.
func (u *UIDTable) Name(kind uidKind, id uint32) (string, bool) {
	p := u.names[kind]
	if p == nil {
		return "", false
	}
	s := *p.Load()
	if id >= uint32(len(s)) || s[id] == "" {
		return "", false
	}
	return s[id], true
}

// Reload rebuilds the in-memory dictionaries from the persisted rows,
// as a freshly started TSD would.
func (u *UIDTable) Reload() error {
	start := []byte{metaPrefix, 'u'}
	end := []byte{metaPrefix, 'u' + 1}
	cells, err := u.client.Scan(start, end, 0)
	if err != nil {
		return fmt.Errorf("tsdb: reload uids: %w", err)
	}
	u.mu.Lock()
	defer u.mu.Unlock()
	forward, next := emptyDicts()
	names := make(map[uidKind][]string)
	for _, c := range cells {
		if len(c.Row) < 4 || len(c.Value) != uidWidth {
			continue
		}
		kind := uidKind(c.Row[2])
		name := string(c.Row[3:])
		id := readUID(c.Value)
		if _, ok := forward[kind]; !ok {
			continue
		}
		forward[kind][name] = id
		names[kind] = withName(names[kind], id, name)
		if id >= next[kind] {
			next[kind] = id + 1
		}
	}
	u.forward, u.next = forward, next
	for kind, p := range u.names {
		s := names[kind]
		p.Store(&s)
	}
	return nil
}

// putUID writes a 3-byte big-endian UID.
func putUID(dst []byte, id uint32) {
	dst[0] = byte(id >> 16)
	dst[1] = byte(id >> 8)
	dst[2] = byte(id)
}

// readUID parses a 3-byte big-endian UID.
func readUID(src []byte) uint32 {
	return uint32(src[0])<<16 | uint32(src[1])<<8 | uint32(src[2])
}
