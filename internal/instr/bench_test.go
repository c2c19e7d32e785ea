package instr

import "testing"

func BenchmarkPMOp(b *testing.B) {
	tr := NewTracer()
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		tr.PMOp(SiteID(i))
	}
}

func BenchmarkCallerSite(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		_ = CallerSite(0)
	}
}

func BenchmarkVirginMerge(b *testing.B) {
	v := NewVirgin()
	tr := NewTracer()
	for i := 0; i < 500; i++ {
		tr.PMOp(SiteID(i * 977))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		v.Merge(tr.PMMap())
	}
}

// BenchmarkVirginMergeFrom times the per-lease refresh of a worker's
// virgin from the authoritative one when both hold the same 900 slots.
func BenchmarkVirginMergeFrom(b *testing.B) {
	auth, w := NewVirgin(), NewVirgin()
	var m Map
	for i := 0; i < 900; i++ {
		m.Hit(uint32(i * 71))
	}
	auth.Merge(&m)
	w.MergeFrom(auth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w.MergeFrom(auth)
	}
}

func BenchmarkSignature(b *testing.B) {
	tr := NewTracer()
	for i := 0; i < 500; i++ {
		tr.PMOp(SiteID(i * 977))
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		_ = Signature(tr.PMMap())
	}
}
