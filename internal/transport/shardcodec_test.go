package transport

import (
	"errors"
	"reflect"
	"testing"

	"epidemic/internal/timestamp"
)

// shardRequests are field shapes specific to the codec-v4 shard section:
// round-0 vectors, shard-scoped peels, and the zero section every other
// kind carries on a v4 session.
func shardRequests() []request {
	return []request{
		{Kind: reqSync, From: 4, Now: 77, Tau1: 9, ShardCount: 4,
			Vector: []uint64{0, 1, ^uint64(0), 0xdeadbeef}},
		{Kind: reqSync, Vector: []uint64{5}},
		{Kind: reqPeelBackShard, From: 2, Shard: 13, ShardCount: 16,
			Bound: timestamp.T{Time: 50, Site: 1, Seq: 2}, Limit: 8},
		{Kind: reqPeelBackShard, Shard: 1023, ShardCount: 1024},
		{Kind: reqChecksum, Tau1: 42}, // empty shard section on v4
	}
}

func shardResponses() []response {
	return []response{
		{ShardCount: 16, Vector: []uint64{7, 0, 0xffffffffffffffff}, Checksum: 3, Now: 9},
		{ShardCount: 1, Vector: []uint64{0}},
		{Checksum: 11, More: true, Bound: timestamp.T{Time: -2, Site: 3}}, // empty section
	}
}

func normalizeShardReq(r *request) {
	normalizeReq(r)
	if len(r.Vector) == 0 {
		r.Vector = nil
	}
}

func normalizeShardResp(r *response) {
	normalizeResp(r)
	if len(r.Vector) == 0 {
		r.Vector = nil
	}
}

// TestCodecShardRoundTrip runs both the shard-specific shapes and the whole
// pre-v4 table through a codecBinaryShard session encode/decode.
func TestCodecShardRoundTrip(t *testing.T) {
	for i, req := range append(shardRequests(), codecRequests()...) {
		payload := appendRequest(nil, &req, codecBinaryShard)
		got := request{Shard: 99, ShardCount: 99, Vector: []uint64{99}}
		if err := decodeRequest(payload, &got, codecBinaryShard); err != nil {
			t.Fatalf("request case %d: decode: %v", i, err)
		}
		want := req
		normalizeShardReq(&want)
		normalizeShardReq(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("request case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
	for i, resp := range append(shardResponses(), codecResponses()...) {
		payload := appendResponse(nil, &resp, codecBinaryShard)
		got := response{ShardCount: 99, Vector: []uint64{99}}
		if err := decodeResponse(payload, &got, codecBinaryShard); err != nil {
			t.Fatalf("response case %d: decode: %v", i, err)
		}
		want := resp
		normalizeShardResp(&want)
		normalizeShardResp(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("response case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestCodecShardSectionGatedByVersion pins the downgrade semantics: a v2/v3
// encode of a request carrying shard fields drops them (they never reach an
// old peer), and a v3 frame decoded as v3 leaves the fields zero even when
// the decode target was dirty.
func TestCodecShardSectionGatedByVersion(t *testing.T) {
	req := shardRequests()[0]
	for _, codec := range []byte{codecBinary, codecBinaryDigest} {
		payload := appendRequest(nil, &req, codec)
		got := request{Shard: 99, ShardCount: 99, Vector: []uint64{99}}
		if err := decodeRequest(payload, &got, codec); err != nil {
			t.Fatalf("codec %d: decode: %v", codec, err)
		}
		if got.Shard != 0 || got.ShardCount != 0 || got.Vector != nil {
			t.Errorf("codec %d: shard section leaked through: %+v", codec, got)
		}
	}
	resp := shardResponses()[0]
	payload := appendResponse(nil, &resp, codecBinaryDigest)
	got := response{ShardCount: 99, Vector: []uint64{99}}
	if err := decodeResponse(payload, &got, codecBinaryDigest); err != nil {
		t.Fatal(err)
	}
	if got.ShardCount != 0 || got.Vector != nil {
		t.Errorf("v3 response decode kept shard section: %+v", got)
	}
}

// TestCodecShardTruncationEveryPrefix chops v4 payloads at every length:
// typed errors only, never a panic or a false success.
func TestCodecShardTruncationEveryPrefix(t *testing.T) {
	for i, req := range shardRequests() {
		payload := appendRequest(nil, &req, codecBinaryShard)
		for n := 0; n < len(payload); n++ {
			var got request
			err := decodeRequest(payload[:n], &got, codecBinaryShard)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
	for i, resp := range shardResponses() {
		payload := appendResponse(nil, &resp, codecBinaryShard)
		for n := 0; n < len(payload); n++ {
			var got response
			err := decodeResponse(payload[:n], &got, codecBinaryShard)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
}

// TestCodecShardForgedVectorCount hand-builds a v4 frame whose vector count
// promises far more 8-byte sums than the frame holds; the count-vs-remaining
// check must refuse it before allocating.
func TestCodecShardForgedVectorCount(t *testing.T) {
	req := request{Kind: reqSync}
	payload := appendRequest(nil, &req, codecBinaryShard)
	// The encoding ends ...Shard(0) ShardCount(0) vectorCount(0): forge the
	// final count byte into a huge uvarint.
	forged := append(payload[:len(payload)-1], 0xff, 0xff, 0xff, 0xff, 0x0f)
	var got request
	if err := decodeRequest(forged, &got, codecBinaryShard); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged vector count: err = %v, want ErrTruncatedFrame", err)
	}
}
