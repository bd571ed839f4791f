package work

import (
	"errors"
	"math"
	"slices"
	"testing"
)

// The cost-miss arithmetic on a hand-computed five-request trace:
//
//	a(10) cold miss, b(100) cold miss, a hit, b miss, a hit
//
// The two cold misses are excluded, leaving three warm requests: one miss
// of cost 100 out of a warm cost of 10+100+10.
func TestCostMissHandTrace(t *testing.T) {
	type req struct {
		key  string
		cost int64
		hit  bool
	}
	trace := []req{{"a", 10, false}, {"b", 100, false}, {"a", 10, true}, {"b", 100, false}, {"a", 10, true}}
	seen := map[string]bool{}
	var cm CostMiss
	for _, r := range trace {
		cm.Add(seen[r.key], r.hit, r.cost)
		seen[r.key] = true
	}
	if cm.WarmHits != 2 || cm.WarmMisses != 1 || cm.MissCost != 100 || cm.TotalCost != 120 {
		t.Fatalf("tallies = %+v", cm)
	}
	if got := cm.MissRatio(); math.Abs(got-1.0/3) > 1e-12 {
		t.Errorf("miss ratio = %v, want 1/3", got)
	}
	if got := cm.CostMissRatio(); math.Abs(got-100.0/120) > 1e-12 {
		t.Errorf("cost-miss ratio = %v, want 100/120", got)
	}
}

func TestCheckDetectsEveryKindOfBadValue(t *testing.T) {
	good := Fill(nil, "c0:k7", 3, 200)
	if _, err := Check(nil, "c0:k7", 3, 200, good); err != nil {
		t.Fatalf("intact value rejected: %v", err)
	}
	corrupt := slices.Clone(good)
	corrupt[150] ^= 0x40
	cases := []struct {
		name string
		got  []byte
		want error
	}{
		{"flipped payload byte", corrupt, ErrCorrupt},
		{"truncated", good[:199], ErrCorrupt},
		{"other key's value", Fill(nil, "c0:k8", 3, 200), ErrWrongKey},
		{"older version", Fill(nil, "c0:k7", 2, 200), ErrVersion},
	}
	for _, c := range cases {
		if _, err := Check(nil, "c0:k7", 3, 200, c.got); !errors.Is(err, c.want) {
			t.Errorf("%s: err = %v, want %v", c.name, err, c.want)
		}
	}
}

func TestQuantileCountsSamplesBeyond(t *testing.T) {
	xs := make([]int64, 1000)
	for i := range xs {
		xs[i] = int64(i + 1)
	}
	if v, beyond := Quantile(xs, 0.99); v != 990 || beyond != 10 {
		t.Errorf("p99 of 1..1000 = %d with %d beyond, want 990 with 10", v, beyond)
	}
	if v, beyond := Quantile(xs, 0.5); v != 500 || beyond != 500 {
		t.Errorf("p50 of 1..1000 = %d with %d beyond, want 500 with 500", v, beyond)
	}
}

func TestGenerateIsAFunctionOfTheSeed(t *testing.T) {
	a, err := Generate("write-journal", 5)
	if err != nil {
		t.Fatal(err)
	}
	b, _ := Generate("write-journal", 5)
	c, _ := Generate("write-journal", 6)
	for i := range a.Streams {
		if !slices.Equal(a.Streams[i].Keys, b.Streams[i].Keys) || !slices.Equal(a.Streams[i].Gets, b.Streams[i].Gets) ||
			!slices.Equal(a.Streams[i].Space.Sizes, b.Streams[i].Space.Sizes) {
			t.Fatalf("stream %d differs between two generations with one seed", i)
		}
	}
	if slices.Equal(a.Streams[0].Keys, c.Streams[0].Keys) {
		t.Error("seeds 5 and 6 generated the same stream")
	}
	if _, err := Generate("no-such-workload", 1); err == nil {
		t.Error("unknown workload accepted")
	}
}
