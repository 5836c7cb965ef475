package transport

import (
	"reflect"
	"testing"

	"epidemic/internal/core"
	"epidemic/internal/node"
	"epidemic/internal/obs/cluster"
	"epidemic/internal/timestamp"
)

func sampleDigests() []cluster.Digest {
	return []cluster.Digest{
		{
			Site: 1, Stamp: 1000, StartedAt: 10,
			StoreKeys: 42, Checksum: 0xdeadbeefcafef00d,
			HotRumors: 3, Peers: 2, Members: 5,
			AERuns: 100, RumorRuns: 200,
			UDPPushes: 9, UDPFallbacks: 2,
			Residue: 0.25, TLastSeconds: 1.5, LastAE: 950,
			AntiEntropy: cluster.LatencySummary{Count: 100, P50: 0.012, P99: 0.3},
			Rumor:       cluster.LatencySummary{Count: 200, P50: 0.004, P99: 0.05},
		},
		{Site: 2, Stamp: 900}, // mostly-zero digest must survive too
	}
}

// TestDigestCodecRoundTrip proves the digest section encodes and decodes
// exactly in both directions, and that an absent section costs one byte.
func TestDigestCodecRoundTrip(t *testing.T) {
	digests := sampleDigests()
	req := request{Kind: reqSync, From: 1, Checksum: 7, Digests: digests}
	var gotReq request
	if err := decodeRequest(appendRequest(nil, &req), &gotReq); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotReq.Digests, digests) {
		t.Errorf("request digests = %+v", gotReq.Digests)
	}

	resp := response{Checksum: 9, Digests: digests}
	var gotResp response
	if err := decodeResponse(appendResponse(nil, &resp), &gotResp); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(gotResp.Digests, digests) {
		t.Errorf("response digests = %+v", gotResp.Digests)
	}

	// An empty section is its zero count: one digest more costs exactly
	// that digest's fields and nothing else.
	bare := request{Kind: reqSync, From: 1, Checksum: 7}
	one := request{Kind: reqSync, From: 1, Checksum: 7, Digests: digests[1:]}
	if got, want := len(appendRequest(nil, &one))-len(appendRequest(nil, &bare)), len(appendDigests(nil, digests[1:]))-1; got != want {
		t.Errorf("one digest added %d bytes, want %d", got, want)
	}
}

// TestDigestSectionTruncation checks the decoder latches a typed error on
// every truncation point of the digest section.
func TestDigestSectionTruncation(t *testing.T) {
	req := request{Kind: reqSync, Digests: sampleDigests()}
	payload := appendRequest(nil, &req)
	var got request
	for n := len(payload) - 1; n >= 0; n-- {
		if err := decodeRequest(payload[:n], &got); err == nil {
			t.Fatalf("truncated payload at %d bytes decoded cleanly", n)
		}
	}
}

// TestDigestPiggybackOverTCP is the end-to-end wire property: two nodes
// with digest directories exchange views through ordinary anti-entropy and
// rumor-pull calls, no dedicated digest requests.
func TestDigestPiggybackOverTCP(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)

	serverDir := cluster.NewDirectory(1, 0)
	serverDir.SetSelf(cluster.Digest{Stamp: 100, StoreKeys: 11})
	serverNode, err := node.New(node.Config{
		Site:  1,
		Clock: src.ClockAt(1),
		Rumor: core.RumorConfig{K: 3, Counter: true, Mode: core.PushPull},
		Resolve: core.ResolveConfig{
			Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40,
		},
		Digests: serverDir,
		Seed:    1,
	})
	if err != nil {
		t.Fatal(err)
	}
	srv, err := Serve(serverNode, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	clientDir := cluster.NewDirectory(2, 0)
	clientDir.SetSelf(cluster.Digest{Stamp: 200, StoreKeys: 22})
	// A third site's digest must relay through the exchange too.
	clientDir.Merge([]cluster.Digest{{Site: 3, Stamp: 50}})

	peer := NewTCPPeerWith(1, srv.Addr(), PeerOptions{Digests: clientDir})
	defer peer.Close()

	clientNode := wireNode(t, 2, src)
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, clientNode.Store(), nil); err != nil {
		t.Fatal(err)
	}

	if dg, ok := serverDir.Get(2); !ok || dg.Stamp != 200 || dg.StoreKeys != 22 {
		t.Errorf("server view of site 2 = %+v ok=%v", dg, ok)
	}
	if dg, ok := serverDir.Get(3); !ok || dg.Stamp != 50 {
		t.Errorf("server missed relayed site 3 digest: %+v ok=%v", dg, ok)
	}
	if dg, ok := clientDir.Get(1); !ok || dg.Stamp != 100 || dg.StoreKeys != 11 {
		t.Errorf("client view of site 1 = %+v ok=%v", dg, ok)
	}

	// Freshen the server's digest; a rumor pull must carry the update.
	serverDir.SetSelf(cluster.Digest{Stamp: 300, StoreKeys: 12})
	if _, _, err := peer.PullRumors(); err != nil {
		t.Fatal(err)
	}
	if dg, _ := clientDir.Get(1); dg.Stamp != 300 {
		t.Errorf("rumor pull did not refresh site 1 digest: %+v", dg)
	}
}

// TestDigestsDisabledZeroOverhead: with no directories configured, the
// request and response carry nil digest slices and conversations work
// exactly as before.
func TestDigestsDisabledZeroOverhead(t *testing.T) {
	src := timestamp.NewSimulated(1 << 30)
	n := wireNode(t, 1, src)
	srv, err := Serve(n, "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()
	peer := NewTCPPeer(1, srv.Addr())
	defer peer.Close()
	clientNode := wireNode(t, 2, src)
	cfg := core.ResolveConfig{Mode: core.PushPull, Strategy: core.CompareRecent, Tau: 1 << 40}
	if _, err := peer.AntiEntropy(cfg, clientNode.Store(), nil); err != nil {
		t.Fatal(err)
	}
	if n.Digests().Len() != 0 {
		t.Error("digests materialised with the observatory off")
	}
}
