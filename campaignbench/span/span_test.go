package span

import (
	"testing"
	"time"
)

// TestSelfTime checks that a span's self time excludes the union of its
// children's intervals, counting overlapping children once.
func TestSelfTime(t *testing.T) {
	r := New()
	at := func(ms int) time.Time { return r.t0.Add(time.Duration(ms) * time.Millisecond) }
	root := r.Add("root", 0, "op", at(0), at(100))
	r.Add("child", root, "op", at(10), at(40))
	r.Add("child", root, "op", at(30), at(50))  // overlaps the first child
	r.Add("child", root, "op", at(90), at(120)) // runs past the parent
	got := map[string]Self{}
	for _, s := range r.SelfTimes() {
		got[s.Name] = s
	}
	ms := int64(time.Millisecond)
	if s := got["root"]; s.Count != 1 || s.TotalNs != 100*ms || s.SelfNs != (100-40-10)*ms {
		t.Fatalf("root: %+v", s)
	}
	if s := got["child"]; s.Count != 3 || s.SelfNs != s.TotalNs || s.TotalNs != (30+20+30)*ms {
		t.Fatalf("child: %+v", s)
	}
}

// TestNilRecorder checks that untraced code paths may call a nil recorder.
func TestNilRecorder(t *testing.T) {
	var r *Recorder
	id := r.Begin("x", 0, "op")
	r.Finish(id)
	if id != 0 || r.Add("y", 0, "op", time.Now(), time.Now()) != 0 {
		t.Fatal("nil recorder returned span ids")
	}
}
