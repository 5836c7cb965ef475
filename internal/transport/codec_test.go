package transport

import (
	"bytes"
	"errors"
	"reflect"
	"testing"

	"epidemic/internal/obs/trace"
	"epidemic/internal/store"
	"epidemic/internal/timestamp"
)

// codecRequests covers the field shapes the binary codec must preserve:
// zero values, negative clocks, nil-vs-empty values (the death-certificate
// distinction), retention lists, and traced pushes.
func codecRequests() []request {
	return []request{
		{},
		{Kind: reqChecksum, Tau1: 42},
		{Kind: reqSync, From: 3, Checksum: 0xdeadbeefcafef00d, Now: -7, Tau1: 1 << 40},
		{Kind: reqPeelBack, Bound: timestamp.T{Time: 99, Site: 2, Seq: 7}, Limit: 64},
		{
			Kind: reqMail,
			Entries: []store.Entry{
				{Key: "k", Value: store.Value("v"), Stamp: timestamp.T{Time: 1, Site: 1, Seq: 1}},
			},
		},
		{
			Kind: reqPushRumors,
			From: 9,
			Entries: []store.Entry{
				{Key: "", Value: store.Value{}, Stamp: timestamp.T{Time: -5, Site: 1}},
				{Key: "dead", Value: nil, Stamp: timestamp.T{Time: 2, Site: 2, Seq: 3},
					Activation: timestamp.T{Time: 8, Site: 2, Seq: 4},
					Retention:  []timestamp.SiteID{1, 5, 9}},
				{Key: "big", Value: store.Value(bytes.Repeat([]byte{0xab}, 300)),
					Stamp: timestamp.T{Time: 1 << 50, Site: 1 << 20, Seq: 1 << 30}},
			},
			Hops: []trace.Hop{
				{Parent: 4, Count: 2, Valid: true},
				{Parent: -1, Count: trace.HopUnknown},
				{},
			},
		},
	}
}

func codecResponses() []response {
	return []response{
		{},
		{Err: "remote exploded"},
		{InSync: true, Checksum: 12345},
		{More: true, Bound: timestamp.T{Time: -3, Site: 7, Seq: 1}},
		{Needed: []bool{true}},
		{Needed: []bool{true, false, true, false, true, false, true}},        // 7: partial byte
		{Needed: []bool{false, true, false, true, false, true, false, true}}, // 8: exact byte
		{Needed: append(make([]bool, 8), true)},                              // 9: byte + 1
		{Needed: func() []bool { n := make([]bool, 65); n[64] = true; return n }()},
		{
			Entries: []store.Entry{
				{Key: "x", Value: nil, Stamp: timestamp.T{Time: 5, Site: 5, Seq: 5}},
				{Key: "y", Value: store.Value("data"), Stamp: timestamp.T{Time: 6, Site: 6, Seq: 6}},
			},
			Hops:     []trace.Hop{{Parent: 1, Count: 1, Valid: true}, {Valid: false}},
			Checksum: 1, InSync: false, More: true,
		},
	}
}

// normalizeEntries maps the wire's nil/empty conventions onto reflect
// equality: a nil Entries/Hops/Needed slice and a zero-length one are the
// same wire object.
func normalizeReq(r *request) {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Hops) == 0 {
		r.Hops = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Retention) == 0 {
			r.Entries[i].Retention = nil
		}
	}
}

func normalizeResp(r *response) {
	if len(r.Entries) == 0 {
		r.Entries = nil
	}
	if len(r.Hops) == 0 {
		r.Hops = nil
	}
	if len(r.Needed) == 0 {
		r.Needed = nil
	}
	for i := range r.Entries {
		if len(r.Entries[i].Retention) == 0 {
			r.Entries[i].Retention = nil
		}
	}
}

func TestCodecRequestRoundTrip(t *testing.T) {
	for i, req := range codecRequests() {
		payload := appendRequest(nil, &req)
		// Decode into a dirty struct: every field must be overwritten.
		got := request{Kind: 99, From: 99, Checksum: 99, Now: 99,
			Tau1: 99, Bound: timestamp.T{Time: 99}, Limit: 99,
			Entries: []store.Entry{{Key: "stale"}}, Hops: []trace.Hop{{Count: 9}}}
		if err := decodeRequest(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := req
		normalizeReq(&want)
		normalizeReq(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

func TestCodecResponseRoundTrip(t *testing.T) {
	for i, resp := range codecResponses() {
		payload := appendResponse(nil, &resp)
		got := response{Needed: []bool{true}, Entries: []store.Entry{{Key: "stale"}},
			InSync: true, Checksum: 99, Bound: timestamp.T{Time: 99},
			More: true, Hops: []trace.Hop{{Count: 9}}, Err: "stale"}
		if err := decodeResponse(payload, &got); err != nil {
			t.Fatalf("case %d: decode: %v", i, err)
		}
		want := resp
		normalizeResp(&want)
		normalizeResp(&got)
		if !reflect.DeepEqual(got, want) {
			t.Errorf("case %d: round trip\n got %+v\nwant %+v", i, got, want)
		}
	}
}

// TestCodecValueNilVsEmpty pins the death-certificate distinction on the
// wire: a nil value (deleted) and an empty value (present, zero bytes)
// must survive a round trip as themselves.
func TestCodecValueNilVsEmpty(t *testing.T) {
	req := request{Kind: reqMail, Entries: []store.Entry{
		{Key: "dead", Value: nil, Stamp: timestamp.T{Time: 1, Site: 1}},
		{Key: "empty", Value: store.Value{}, Stamp: timestamp.T{Time: 2, Site: 1}},
	}}
	var got request
	if err := decodeRequest(appendRequest(nil, &req), &got); err != nil {
		t.Fatal(err)
	}
	if got.Entries[0].Value != nil {
		t.Errorf("nil value decoded as %v", got.Entries[0].Value)
	}
	if got.Entries[1].Value == nil {
		t.Error("empty value decoded as nil")
	}
}

// TestCodecTruncationEveryPrefix chops valid payloads at every length:
// decode must fail with a typed error — never panic, never succeed (except
// at full length).
func TestCodecTruncationEveryPrefix(t *testing.T) {
	for i, req := range codecRequests() {
		payload := appendRequest(nil, &req)
		for n := 0; n < len(payload); n++ {
			var got request
			err := decodeRequest(payload[:n], &got)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
	for i, resp := range codecResponses() {
		payload := appendResponse(nil, &resp)
		for n := 0; n < len(payload); n++ {
			var got response
			err := decodeResponse(payload[:n], &got)
			if err == nil {
				t.Fatalf("case %d: decode of %d/%d-byte prefix succeeded", i, n, len(payload))
			}
			if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
				t.Fatalf("case %d: prefix %d: untyped error %v", i, n, err)
			}
		}
	}
}

// TestCodecTrailingGarbage appends junk after a valid payload: the decoder
// must notice the frame was not fully consumed.
func TestCodecTrailingGarbage(t *testing.T) {
	req := codecRequests()[2]
	payload := append(appendRequest(nil, &req), 0xde, 0xad)
	var got request
	if err := decodeRequest(payload, &got); !errors.Is(err, ErrFrameGarbage) {
		t.Errorf("decodeRequest err = %v, want ErrFrameGarbage", err)
	}
	resp := codecResponses()[2]
	rp := append(appendResponse(nil, &resp), 0xbe)
	var gotR response
	if err := decodeResponse(rp, &gotR); !errors.Is(err, ErrFrameGarbage) {
		t.Errorf("decodeResponse err = %v, want ErrFrameGarbage", err)
	}
}

// TestCodecForgedCountsRejected hand-builds payloads whose collection
// counts promise more than the frame holds; the sanity checks must refuse
// them before any large allocation.
func TestCodecForgedCountsRejected(t *testing.T) {
	// A request whose entry count claims 2^40 entries.
	var b []byte
	b = append(b, byte(reqPushRumors))
	b = appendUint32(b, 1)
	b = appendUint64(b, 0)
	b = appendVarint(b, 0) // Now
	b = appendVarint(b, 0) // Tau1
	b = appendStamp(b, timestamp.T{})
	b = appendVarint(b, 0)      // Limit
	b = appendUvarint(b, 1<<40) // forged entry count
	var got request
	if err := decodeRequest(b, &got); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged entry count: err = %v, want ErrTruncatedFrame", err)
	}

	// A response whose Needed count far exceeds 8 bits per remaining byte.
	var rb []byte
	rb = append(rb, 0) // flags
	rb = appendUint64(rb, 0)
	rb = appendStamp(rb, timestamp.T{})
	rb = appendUvarint(rb, 1<<40) // forged Needed count
	var gotR response
	if err := decodeResponse(rb, &gotR); !errors.Is(err, ErrTruncatedFrame) {
		t.Errorf("forged needed count: err = %v, want ErrTruncatedFrame", err)
	}
}

// TestCodecUnusedSectionsCostOneByteEach pins the single layout: a zero
// request is its fixed fields plus one zero byte per count or varint of
// every section, and a zero response likewise.
func TestCodecUnusedSectionsCostOneByteEach(t *testing.T) {
	// Kind, From, Checksum, Now, Tau1, Bound, Limit; then entries, hops,
	// digests, Shard, ShardCount, vector, and the two mail varints.
	if got, want := len(appendRequest(nil, &request{})), 1+4+8+1+1+stampWireLen+1+8; got != want {
		t.Errorf("zero request = %d bytes, want %d", got, want)
	}
	// Flags, Checksum, Bound; then needed, entries, hops, err, digests,
	// ShardCount, vector.
	if got, want := len(appendResponse(nil, &response{})), 1+8+stampWireLen+7; got != want {
		t.Errorf("zero response = %d bytes, want %d", got, want)
	}
}

func TestRequestWireSizeIsUpperBound(t *testing.T) {
	all := append(codecRequests(), append(shardRequests(), mailRequests()...)...)
	for i, req := range all {
		actual := len(appendRequest(nil, &req))
		bound := requestWireSize(&req)
		if actual > bound {
			t.Errorf("case %d: encoded %d bytes > claimed bound %d", i, actual, bound)
		}
		if bound > actual+128 {
			t.Errorf("case %d: bound %d too loose for %d actual bytes", i, bound, actual)
		}
	}
	// Digests are bounded at full varint width, so only the upper bound is
	// tight enough to pin.
	req := request{Kind: reqSync, Digests: sampleDigests(), Vector: []uint64{1, 2, 3}}
	if actual, bound := len(appendRequest(nil, &req)), requestWireSize(&req); actual > bound {
		t.Errorf("digest request: encoded %d bytes > claimed bound %d", actual, bound)
	}
}

// FuzzDecodeFrame feeds arbitrary bytes to both decoders. They must never
// panic, and anything that decodes cleanly must re-encode and re-decode to
// the same value (the codec is its own inverse on its image).
func FuzzDecodeFrame(f *testing.F) {
	for _, req := range codecRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range codecResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	// Shard-vector and shard-peel shapes, and mail batches with their
	// telemetry, so the fuzzer starts with every section populated.
	for _, req := range shardRequests() {
		f.Add(appendRequest(nil, &req))
	}
	for _, resp := range shardResponses() {
		f.Add(appendResponse(nil, &resp))
	}
	for _, req := range mailRequests() {
		f.Add(appendRequest(nil, &req))
	}
	f.Add([]byte{})
	f.Add([]byte{0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff, 0xff})
	f.Fuzz(func(t *testing.T, payload []byte) {
		var req request
		if err := decodeRequest(payload, &req); err == nil {
			re := appendRequest(nil, &req)
			var again request
			if err := decodeRequest(re, &again); err != nil {
				t.Fatalf("re-decode of re-encoded request failed: %v", err)
			}
			normalizeShardReq(&req)
			normalizeShardReq(&again)
			if !reflect.DeepEqual(req, again) {
				t.Fatalf("request not stable under re-encode:\n1st %+v\n2nd %+v", req, again)
			}
		} else if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
			t.Fatalf("decodeRequest returned untyped error %v", err)
		}
		var resp response
		if err := decodeResponse(payload, &resp); err == nil {
			re := appendResponse(nil, &resp)
			var again response
			if err := decodeResponse(re, &again); err != nil {
				t.Fatalf("re-decode of re-encoded response failed: %v", err)
			}
			normalizeShardResp(&resp)
			normalizeShardResp(&again)
			if !reflect.DeepEqual(resp, again) {
				t.Fatalf("response not stable under re-encode:\n1st %+v\n2nd %+v", resp, again)
			}
		} else if !errors.Is(err, ErrTruncatedFrame) && !errors.Is(err, ErrFrameGarbage) {
			t.Fatalf("decodeResponse returned untyped error %v", err)
		}
	})
}
