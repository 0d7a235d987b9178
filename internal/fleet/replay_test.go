package fleet

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"testing"

	"github.com/seed5g/seed/internal/cause"
	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/report"
)

// replayScripts is how many seeded scripts TestReplayEqualsLiveFold runs.
const replayScripts = 20

// TestReplayEqualsLiveFold checks that replay rebuilds the pre-crash state
// byte for byte, on the real TCP stack. Each seeded script drives a
// journaled server with uploads and their verbatim retries, reports,
// tampered blobs and queries, under a compaction threshold small enough
// (compactBytes) that compaction happens mid-script; it then kills the
// server at a seeded point and starts a fresh one on the same directory. The fresh
// server must hold the same model bytes and the same envelope counters.
// The one exception is each envelope's downlink send counter: suggestions
// are not journaled, so recovery cannot restore it, and a shard that
// replayed records raises it by downlinkRecoverySkip instead.
func TestReplayEqualsLiveFold(t *testing.T) {
	var compactions, unclean, clean int
	for seed := int64(1); seed <= replayScripts; seed++ {
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			c, u, n := checkReplayScript(t, seed)
			compactions, unclean, clean = compactions+c, unclean+u, clean+n
		})
	}
	if !t.Failed() && (compactions == 0 || unclean == 0 || clean == 0) {
		t.Fatalf("scripts compacted %d times, killed %d shards with a journal tail and %d without: the property went unexercised",
			compactions, unclean, clean)
	}
}

// checkReplayScript runs one script and returns how many compactions it
// made and how many shards it killed with and without a journal tail.
func checkReplayScript(t *testing.T, seed int64) (compactions, unclean, clean int) {
	rng := rand.New(rand.NewSource(seed))
	cfg := ServerConfig{Shards: 1 + rng.Intn(3), JournalDir: t.TempDir(), compactBytes: int64(400 + rng.Intn(1600))}
	srv, cl := startJournalServer(t, cfg)
	devs := make([]*SimDevice, 3+rng.Intn(6))
	for i := range devs {
		devs[i] = NewSimDevice(DefaultMasterKey, fmt.Sprintf("00130%010d", i))
	}
	var uploads []Frame // every upload sent, for verbatim retries
	do := func(what string, f Frame, wantErr bool) {
		t.Helper()
		if _, err := cl.do(context.Background(), what, f); (err != nil) != wantErr {
			t.Fatalf("seed %d: %s: err=%v, want error %v", seed, what, err, wantErr)
		}
	}
	seal := func(sealed []byte, err error) []byte {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
		return sealed
	}
	for range 10 + rng.Intn(70) {
		dev := devs[rng.Intn(len(devs))]
		switch op := rng.Intn(10); {
		case op < 4:
			sealed := seal(dev.SealRecords(core.MarshalRecords(deviceRecords(rng.Intn(60)))))
			up := Frame{Type: TUpload, Payload: AppendSealedPayload(nil, dev.IMSI, sealed)}
			uploads = append(uploads, up)
			do("upload", up, false)
		case op < 5 && len(uploads) > 0:
			do("retry", uploads[rng.Intn(len(uploads))], false)
		case op < 6:
			rep := report.FailureReport{Type: report.FailDNS, Direction: report.DirBoth, Domain: "replay.test"}
			do("report", Frame{Type: TReport, Payload: AppendSealedPayload(nil, dev.IMSI, seal(dev.SealReport(rep.Marshal())))}, false)
		case op < 7:
			sealed := seal(dev.SealRecords(core.MarshalRecords(deviceRecords(rng.Intn(60)))))
			sealed[rng.Intn(len(sealed))] ^= 1 << rng.Intn(8)
			do("tampered", Frame{Type: TUpload, Payload: AppendSealedPayload(nil, dev.IMSI, sealed)}, true)
		default:
			// deviceRecords reports MM(150..152); MM(153) abstains.
			do("query", Frame{Type: TQuery, Payload: AppendQueryPayload(nil, dev.IMSI, cause.MM(cause.Code(150+rng.Intn(4))))}, false)
		}
	}
	cl.Close()
	srv.Kill()
	liveModel, live := srv.Model(), counterState(srv)
	tail := make([]bool, len(srv.shards)) // the shard died with records past its snapshot
	for i, sh := range srv.shards {
		tail[i] = sh.jr.size > 0
		if tail[i] {
			unclean++
		} else {
			clean++
		}
	}
	compactions = int(srv.Stats().Compactions)

	restored, cl2 := startJournalServer(t, cfg)
	cl2.Close()
	defer restored.Kill()
	if got := restored.Model(); !bytes.Equal(got, liveModel) {
		t.Fatalf("seed %d: recovered model differs:\n got %x\nwant %x", seed, got, liveModel)
	}
	got := counterState(restored)
	for imsi := range union(live, got) {
		l, r := live[imsi], got[imsi]
		if tail[restored.homeShard(imsi).idx] && r != ([4]uint32{}) && r[1] < downlinkRecoverySkip {
			t.Errorf("seed %d: %s: downlink send counter %d not raised past the unjournaled seals", seed, imsi, r[1])
		}
		l[1], r[1] = 0, 0
		if l != r {
			t.Errorf("seed %d: %s: counters (sendUp, -, recvUp, recvDn) recovered as %v, live %v", seed, imsi, r, l)
		}
	}
	return compactions, unclean, clean
}

func union(a, b map[string][4]uint32) map[string]bool {
	out := make(map[string]bool, len(a)+len(b))
	for k := range a {
		out[k] = true
	}
	for k := range b {
		out[k] = true
	}
	return out
}
