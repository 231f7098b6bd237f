package tsdb

import (
	"fmt"
	"testing"

	"repro/internal/hbase"
)

// TestQueryNegativeStart: stored timestamps are never negative, so a
// window opening before 0 must still return the samples from 0 on. A
// start of -3601 or below used to wrap the scan's low key above its
// high key and come back empty.
func TestQueryNegativeStart(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 4})
	tsd := d.TSDs()[0]
	if err := tsd.Put([]Point{EnergyPoint(1, 1, 10, 2.5)}); err != nil {
		t.Fatal(err)
	}
	for _, start := range []int64{-3599, -3600, -3601, -7200, -1 << 40} {
		series, err := tsd.Query(Query{Metric: MetricEnergy, Start: start, End: 100})
		if err != nil {
			t.Fatal(err)
		}
		if len(series) != 1 || len(series[0].Samples) != 1 || series[0].Samples[0].Timestamp != 10 {
			t.Fatalf("start %d: got %+v, want the one sample at t=10", start, series)
		}
	}
	series, err := tsd.Query(Query{Metric: MetricEnergy, Start: -7200, End: -1})
	if err != nil || len(series) != 0 {
		t.Fatalf("window before 0 = %+v, %v; want empty", series, err)
	}
}

// sameSeries reports whether two query results hold the same series,
// tags and samples in the same order.
func sameSeries(got, want []Series) error {
	if len(got) != len(want) {
		return fmt.Errorf("%d series, want %d", len(got), len(want))
	}
	for i := range got {
		if got[i].ID() != want[i].ID() {
			return fmt.Errorf("series %d = %s, want %s", i, got[i].ID(), want[i].ID())
		}
		if len(got[i].Samples) != len(want[i].Samples) {
			return fmt.Errorf("%s: %d samples, want %d", got[i].ID(), len(got[i].Samples), len(want[i].Samples))
		}
		for j, s := range got[i].Samples {
			if s != want[i].Samples[j] {
				return fmt.Errorf("%s sample %d = %+v, want %+v", got[i].ID(), j, s, want[i].Samples[j])
			}
		}
	}
	return nil
}

// TestTagPushdownMatchesPostFilter: a query whose tags are pushed into
// the regions as a row filter returns exactly what the unfiltered query
// returns after keeping only the series tagsMatch accepts — over sealed
// and hot hours, raw and downsampled windows, tag subsets, extra tag
// keys, unknown keys and values, and empty values. A TSD whose UID
// table has not seen a metric or tag yet reloads once and then agrees.
func TestTagPushdownMatchesPostFilter(t *testing.T) {
	d, bs := sealedDeployment(t, BlockStoreConfig{})
	tsd := d.TSDs()[0]
	var pts []Point
	for ts := int64(0); ts < 2*rowBaseSeconds; ts += 7 {
		for u := 0; u < 3; u++ {
			for s := 0; s < 3; s++ {
				pts = append(pts, EnergyPoint(u, s, ts, float64(u*100+s)+float64(ts%13)))
			}
		}
		pts = append(pts, Point{Metric: MetricEnergy, Tags: map[string]string{"unit": "1", "sensor": "1", "site": "x"}, Timestamp: ts, Value: float64(ts)})
	}
	if err := tsd.Put(pts); err != nil {
		t.Fatal(err)
	}
	if n, err := tsd.CompactRows(rowBaseSeconds); err != nil || n == 0 {
		t.Fatalf("sealed %d rows, %v", n, err)
	}
	// A second daemon over the same table with its own, still empty,
	// UID table: its first queries must reload to resolve names.
	fresh := &TSD{
		name:   "fresh",
		client: d.Cluster.NewClient(hbase.ClientConfig{}),
		codec:  NewCodec(NewUIDTable(d.Cluster.NewClient(hbase.ClientConfig{})), 2),
	}
	fresh.blocks.Store(bs)

	filters := []map[string]string{
		nil,
		{"unit": "1"},
		{"sensor": "2"},
		{"unit": "1", "sensor": "1"},
		{"site": "x"},
		{"unit": "1", "site": "x"},
		{"unit": "9"},
		{"nokey": "1"},
		{"unit": "1", "sensor": "nope"},
		{"site": ""},
		{"unit": "2", "site": ""},
	}
	windows := []Query{
		{Start: 0, End: 2*rowBaseSeconds - 1},
		{Start: 1800, End: 5400},
		{Start: 3600, End: 3700},
		{Start: 0, End: 2*rowBaseSeconds - 1, DownsampleSeconds: 60},
		{Start: 17, End: 5000, DownsampleSeconds: 60},
	}
	for _, w := range windows {
		w.Metric = MetricEnergy
		all, err := tsd.Query(w)
		if err != nil {
			t.Fatal(err)
		}
		for _, tags := range filters {
			q := w
			q.Tags = tags
			var want []Series
			for _, s := range all {
				if tagsMatch(tags, s.Tags) {
					want = append(want, s)
				}
			}
			for _, daemon := range []*TSD{tsd, fresh} {
				got, err := daemon.Query(q)
				if err != nil {
					t.Fatal(err)
				}
				if err := sameSeries(got, want); err != nil {
					t.Fatalf("%s: window [%d,%d]/%d tags %v: %v", daemon.name, q.Start, q.End, q.DownsampleSeconds, tags, err)
				}
			}
		}
	}

	// A tag value interned after the fresh daemon loaded its UIDs: the
	// pushdown misses locally, reloads once, and finds the new series.
	if err := tsd.Put([]Point{EnergyPoint(7, 0, 4000, 1.5)}); err != nil {
		t.Fatal(err)
	}
	got, err := fresh.Query(Query{Metric: MetricEnergy, Tags: map[string]string{"unit": "7"}, Start: 0, End: 5000})
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 1 || len(got[0].Samples) != 1 || got[0].Samples[0] != (Sample{Timestamp: 4000, Value: 1.5}) {
		t.Fatalf("new tag value after reload = %+v", got)
	}
}

func TestTagFilterLayout(t *testing.T) {
	d := newDeployment(t, 2, 1, TSDConfig{SaltBuckets: 4})
	codec := NewCodec(d.UIDs, 4)
	p := EnergyPoint(3, 5, 100, 1)
	cell, err := codec.Encode(&p)
	if err != nil {
		t.Fatal(err)
	}
	for _, tc := range []struct {
		tags map[string]string
		want bool
	}{
		{map[string]string{"unit": "3"}, true},
		{map[string]string{"sensor": "5"}, true},
		{map[string]string{"unit": "3", "sensor": "5"}, true},
		{map[string]string{"unit": "5"}, false}, // "5" is interned, but as the sensor's value
		{map[string]string{"sensor": "3"}, false},
	} {
		f, ok := codec.tagFilter(tc.tags)
		if !ok || f.Match(cell.Row) != tc.want {
			t.Fatalf("%v: filter %+v ok=%v, want match %v", tc.tags, f, ok, tc.want)
		}
	}
	if _, ok := codec.tagFilter(map[string]string{"unit": "never-written"}); ok {
		t.Fatal("an unknown tag value must report no possible match")
	}
}
