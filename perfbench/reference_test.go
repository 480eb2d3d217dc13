package main

import (
	"testing"

	"github.com/slash-stream/slash/internal/cluster"
	"github.com/slash-stream/slash/internal/stream"
)

// TestReferenceYSB checks the YSB reference on an input small enough to count
// by hand: window length 10, views (V0 == 0) only.
func TestReferenceYSB(t *testing.T) {
	flows := [][]stream.Record{
		{
			{Key: 1, Time: 1, V0: 0},  // w0 k1
			{Key: 1, Time: 4, V0: 1},  // click: dropped
			{Key: 2, Time: 9, V0: 0},  // w0 k2
			{Key: 1, Time: 12, V0: 0}, // w1 k1
		},
		{
			{Key: 1, Time: 3, V0: 0},  // w0 k1
			{Key: 2, Time: 11, V0: 2}, // purchase: dropped
			{Key: 0, Time: 15, V0: 0}, // w1 k0
		},
	}
	ref := evaluate(flows, 10, false, ysbKeep)
	want := "A 0 1 2\nA 0 2 1\nA 1 0 1\nA 1 1 1\n"
	if got := cluster.RenderRows(ref.clusterRows()); got != want {
		t.Fatalf("rows:\n%s\nwant:\n%s", got, want)
	}
	// Flow 0's last view in w0 is index 2, in w1 index 3; flow 1's are 0 and 2.
	if ref.last[0][0] != 2 || ref.last[1][0] != 3 || ref.last[0][1] != 0 || ref.last[1][1] != 2 {
		t.Fatalf("last contributing records %v", ref.last)
	}

	s := newCheckSink(ref)
	s.EmitAgg(0, 0, 1, 2)
	s.EmitAgg(1, 0, 2, 1)
	s.EmitAgg(0, 1, 0, 1)
	s.EmitAgg(1, 1, 1, 1)
	if err := s.verify(); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	s.EmitAgg(1, 1, 1, 1)
	if s.verify() == nil {
		t.Fatal("duplicate row accepted")
	}
	s.reset()
	s.EmitAgg(0, 0, 1, 2)
	s.EmitAgg(1, 0, 2, 1)
	s.EmitAgg(0, 1, 0, 1)
	s.EmitAgg(1, 1, 1, 2)
	if s.verify() == nil {
		t.Fatal("wrong count accepted")
	}
}

// TestReferenceNB8 checks the NB8 reference: per (window, seller) the number
// of auctions (V1 == 0) and persons (V1 == 1), window length 100.
func TestReferenceNB8(t *testing.T) {
	flows := [][]stream.Record{
		{
			{Key: 5, Time: 10, V1: 1},  // w0 k5 person
			{Key: 5, Time: 20, V1: 0},  // w0 k5 auction
			{Key: 7, Time: 150, V1: 0}, // w1 k7 auction
		},
		{
			{Key: 5, Time: 30, V1: 0},  // w0 k5 auction
			{Key: 7, Time: 120, V1: 1}, // w1 k7 person
			{Key: 7, Time: 130, V1: 1}, // w1 k7 person
		},
	}
	ref := evaluate(flows, 100, true, nil)
	want := "J 0 5 2 1 2\nJ 1 7 1 2 2\n"
	if got := cluster.RenderRows(ref.clusterRows()); got != want {
		t.Fatalf("rows:\n%s\nwant:\n%s", got, want)
	}
	s := newCheckSink(ref)
	s.EmitJoin(1, 0, 5, 2, 1)
	s.EmitJoin(0, 1, 7, 1, 2)
	if err := s.verify(); err != nil {
		t.Fatalf("matching output rejected: %v", err)
	}
	s.reset()
	s.EmitJoin(1, 0, 5, 2, 1)
	if s.verify() == nil {
		t.Fatal("missing row accepted")
	}
	s.EmitJoin(0, 9, 7, 1, 2)
	if s.verify() == nil {
		t.Fatal("out-of-range window accepted")
	}
}
