package transport

import (
	"fmt"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// benchResponse builds a representative anti-entropy reply: a peel batch of
// entries entries with provenance hops and a needed bitmap, the shape the
// codec encodes on every conversation of a diverged pair.
func benchResponse(entries int) *response {
	resp := &response{
		Checksum: 0xfeedfacecafebeef,
		Bound:    timestamp.T{Time: 1<<40 - 512, Site: 3, Seq: 77},
		Needed:   make([]bool, entries),
	}
	for i := 0; i < entries; i++ {
		resp.Entries = append(resp.Entries, store.Entry{
			Key:   fmt.Sprintf("user/profile/%04d", i),
			Value: store.Value("MV:1.17#42 replicated-value-payload"),
			Stamp: timestamp.T{Time: int64(1<<40 - i), Site: timestamp.SiteID(i%5 + 1), Seq: uint32(i)},
		})
		resp.Hops = append(resp.Hops, trace.Hop{
			Parent: timestamp.SiteID(i%5 + 1), Count: int32(i % 7), Valid: true,
		})
		resp.Needed[i] = i%3 != 0
	}
	return resp
}

// BenchmarkCodecEncode measures one response encode, appending into a
// reused buffer (the pooled-session steady state).
func BenchmarkCodecEncode(b *testing.B) {
	resp := benchResponse(16)
	b.Run("binary", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], resp)
		}
		b.ReportMetric(float64(len(buf)), "wire_bytes")
	})
}

// BenchmarkCodecRoundTrip measures encode+decode of the same response: the
// full serialization cost one framed message pays on the wire.
func BenchmarkCodecRoundTrip(b *testing.B) {
	resp := benchResponse(16)
	b.Run("binary", func(b *testing.B) {
		buf := make([]byte, 0, 4096)
		var out response
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			buf = appendResponse(buf[:0], resp)
			if err := decodeResponse(buf, &out); err != nil {
				b.Fatal(err)
			}
		}
	})
}
