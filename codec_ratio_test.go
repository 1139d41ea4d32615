package golatest

import (
	"testing"

	"golatest/internal/experiments"
	"golatest/internal/store"
)

// maxQuickA100BlobBytes pins the on-disk size of the quick-scale A100
// seed-7 campaign blob: 35 106 bytes when this pin was set (2 vCPU
// x86-64, Go 1.24), bounded at 35 112, the size before the blob's
// reserved header field was zeroed.
const maxQuickA100BlobBytes = 35112

// TestBlobCompressionRatio is the size gate of the blob format on real
// data: one quick-scale A100 campaign persisted through the store must
// not grow on disk. The logged blob_compression_ratio (body size over
// on-disk size) is scraped by scripts/bench_smoke.sh into
// BENCH_campaign.json.
func TestBlobCompressionRatio(t *testing.T) {
	if testing.Short() {
		t.Skip("runs one quick A100 campaign")
	}
	st, err := store.Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	s := experiments.NewSuite(experiments.Options{
		Scale: experiments.ScaleQuick, Seed: 7, Store: st,
	})
	if _, err := s.CampaignByKey("a100"); err != nil {
		t.Fatal(err)
	}
	ix := st.Index()
	if len(ix) != 1 {
		t.Fatalf("store indexes %d blobs, want the one campaign", len(ix))
	}
	e := ix[0]
	if e.Bytes <= 0 || e.RawBytes <= 0 {
		t.Fatalf("entry sizes not recorded: %+v", e)
	}
	ratio := float64(e.RawBytes) / float64(e.Bytes)
	t.Logf("blob_compression_ratio=%.2f raw_bytes=%d compressed_bytes=%d", ratio, e.RawBytes, e.Bytes)
	if e.Bytes > maxQuickA100BlobBytes {
		t.Fatalf("quick-scale blob is %d bytes on disk, want <= %d", e.Bytes, maxQuickA100BlobBytes)
	}
}
