package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
	"time"
)

func TestSelfTimes(t *testing.T) {
	// round [0,100): stage a [0,40) with a child [10,20); stage b
	// [40,90) with two overlapping children [50,70) and [60,80) and one
	// sticking out past b's end [85,95).
	spans := []span{
		{ID: 1, Name: "round", Start: 0, End: 100},
		{ID: 2, Parent: 1, Name: "a", Start: 0, End: 40},
		{ID: 3, Parent: 2, Name: "a.child", Start: 10, End: 20},
		{ID: 4, Parent: 1, Name: "b", Start: 40, End: 90},
		{ID: 5, Parent: 4, Name: "b.c1", Start: 50, End: 70},
		{ID: 6, Parent: 4, Name: "b.c2", Start: 60, End: 80},
		{ID: 7, Parent: 4, Name: "b.c3", Start: 85, End: 95},
	}
	self := selfTimes(spans)
	want := map[int]int64{
		1: 10, // [90,100) is covered by no stage
		2: 30,
		3: 10,
		4: 15, // 50 - merged [50,80) - clipped [85,90)
		5: 20,
		6: 20,
		7: 10,
	}
	for id, w := range want {
		if self[id] != w {
			t.Errorf("self time of span %d = %d, want %d", id, self[id], w)
		}
	}
}

func TestTracer(t *testing.T) {
	var none *tracer
	if id := none.add(0, 1, "x", time.Now(), time.Now()); id != 0 || none.snapshot() != nil {
		t.Error("a nil tracer must record nothing")
	}
	none.finish(0, time.Now(), time.Now())

	tr := newTracer()
	root := tr.reserve(0, 1, "round")
	t0 := time.Now()
	child := tr.add(root, 1, "stage", t0, t0.Add(time.Millisecond))
	tr.finish(root, t0, t0.Add(2*time.Millisecond))
	got := tr.snapshot()
	if len(got) != 2 || got[root-1].End-got[root-1].Start != 2e6 || got[child-1].Parent != root || got[child-1].Round != 1 {
		t.Fatalf("spans = %+v", got)
	}

	path := filepath.Join(t.TempDir(), "spans.json")
	if err := tr.write(path); err != nil {
		t.Fatal(err)
	}
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var back []span
	if err := json.Unmarshal(data, &back); err != nil || len(back) != 2 || back[1].Name != "stage" {
		t.Fatalf("spans file: %v %+v", err, back)
	}
}
