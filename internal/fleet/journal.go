package fleet

import (
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"path/filepath"

	"github.com/seed5g/seed/internal/core"
	"github.com/seed5g/seed/internal/crypto5g"
)

// The durable tier. Each aggregation shard owns an append-only journal of
// the sealed envelopes it acknowledged plus a compaction snapshot:
//
//	journal record:  len(4, BE) | crc32(4, BE, IEEE over payload) | payload
//	payload:         seq(8, BE) | kind(1) | imsiLen(1) | imsi | body
//
// Kinds: jUpload/jReport carry the exact sealed wire bytes. jInstall
// carries a counter table (empty IMSI field): the retired multi-node tier
// wrote one per rebalance handoff, and no live path writes it now, but
// replay still applies it, so a directory an older server wrote (the
// durable-v1 fixture holds one per shard) recovers whole. A record folded
// under the shard's lock joins the journal's pending group; a connection
// commits through its newest record before it writes the replies, and the
// first to find that record unsynced writes the whole pending group and
// fsyncs ONCE for everyone in it (leader/follower group commit) — so an
// acknowledged upload is durable by definition, and the fsync cost
// amortizes across the connections under load.
//
// Replay hands every record past the snapshot to the shard's apply, the
// one function the live handlers also change a shard through: the sealed
// bytes re-open through freshly derived subscriber envelopes, which
// restores both the model and the envelope receive counters. The counters
// are the dedup state, so a client retrying an upload that was acked just
// before the crash gets ErrReplay → duplicate ack, never a second fold:
// at-least-once delivery stays an exactly-once fold across SIGKILL.
//
//	snapshot file:   magic "SEEDSHD1" | seq(8) | counter table |
//	                 modelLen(4) | model | crc32(4, over all prior bytes)
//
// The counter table is AppendCounterTable's encoding: nEnv(4) | nEnv ×
// (imsiLen(1) imsi sendUp(4) sendDn(4) recvUp(4) recvDn(4)), sorted by
// IMSI.
//
// Compaction writes the snapshot to a tmp file, fsyncs it, renames it
// over the old snapshot, fsyncs the directory, and only then truncates
// and fsyncs the journal: the truncate can never reach the disk ahead of
// the rename that covers the truncated records. A new journal file is
// made durable the same way, by a directory fsync before the server
// listens. Sequence numbers never reset, and replay skips records with
// seq <= snapshot seq, so a crash BETWEEN the rename and the truncate —
// snapshot present, journal still full — replays to the identical model
// instead of double-folding.
//
// A "cluster.map" file that an older multi-node server left in the
// directory is neither read nor removed.
//
// Recovery failure policy: a record torn at the very tail of the journal
// is the signature of dying mid-append before the fsync returned — it was
// never acked, so it is truncated away and recovery proceeds. Anything
// else (a CRC-corrupt complete record, a corrupt snapshot, a journal
// shorter than its snapshot's seq implies) is data damage and refuses
// startup with a descriptive error; ForceEmpty moves the damaged files
// aside and starts empty instead, but only when asked explicitly.

const (
	jUpload  byte = 1
	jReport  byte = 2
	jInstall byte = 3

	journalHeaderLen = 8

	// downlinkRecoverySkip is added to every recovered envelope's downlink
	// send counter after an unclean restart. Suggestion seals between the
	// last compaction and the crash are not journaled (they carry no model
	// state), so the restarted node could otherwise re-issue counters a
	// device has already accepted. The skip jumps past any plausible
	// number of un-snapshotted seals; suggestions stay best-effort, but
	// never silently replay a counter.
	downlinkRecoverySkip = 1 << 20

	shardSnapMagic = "SEEDSHD1"
)

func journalPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.journal", shard))
}

func snapshotPath(dir string, shard int) string {
	return filepath.Join(dir, fmt.Sprintf("shard-%d.snap", shard))
}

// syncDir fsyncs a directory, which is what makes a file created in it or
// renamed within it survive a crash.
func syncDir(dir string) error {
	d, err := os.Open(dir)
	if err != nil {
		return err
	}
	err = d.Sync()
	if cerr := d.Close(); err == nil {
		err = cerr
	}
	return err
}

// journalRec is one decoded journal record.
type journalRec struct {
	seq  uint64
	kind byte
	imsi []byte
	body []byte
}

// journal is an open, append-position journal file.
type journal struct {
	f    *os.File
	size int64
	// nextSeq is the sequence the next appended record receives. It is
	// monotonic for the life of the shard directory — compaction truncates
	// the file but never resets the sequence.
	nextSeq uint64
	// pending holds the n encoded records added since the last take.
	pending []byte
	n       int
}

func appendJournalRecord(dst []byte, r journalRec) []byte {
	payloadLen := 8 + 1 + 1 + len(r.imsi) + len(r.body)
	dst = binary.BigEndian.AppendUint32(dst, uint32(payloadLen))
	crcAt := len(dst)
	dst = append(dst, 0, 0, 0, 0) // crc placeholder
	payloadAt := len(dst)
	dst = binary.BigEndian.AppendUint64(dst, r.seq)
	dst = append(dst, r.kind, byte(len(r.imsi)))
	dst = append(dst, r.imsi...)
	dst = append(dst, r.body...)
	binary.BigEndian.PutUint32(dst[crcAt:], crc32.ChecksumIEEE(dst[payloadAt:]))
	return dst
}

func parseJournalPayload(p []byte) (journalRec, error) {
	if len(p) < 10 {
		return journalRec{}, fmt.Errorf("fleet: journal payload %d bytes, want >= 10", len(p))
	}
	r := journalRec{seq: binary.BigEndian.Uint64(p[:8]), kind: p[8]}
	il := int(p[9])
	if len(p) < 10+il {
		return journalRec{}, fmt.Errorf("fleet: journal payload truncated: IMSI needs %d bytes", il)
	}
	r.imsi = p[10 : 10+il]
	r.body = p[10+il:]
	return r, nil
}

// errJournalCorrupt marks unrecoverable journal or snapshot damage (as
// opposed to a benign torn tail).
var errJournalCorrupt = errors.New("fleet: durable state corrupt")

// scanJournal reads every intact record of a journal file. A record torn
// at the tail (header or body running past EOF) is reported via torn and
// goodLen marks where the intact prefix ends; a CRC mismatch on a
// complete record is an errJournalCorrupt.
func scanJournal(path string) (recs []journalRec, goodLen int64, torn bool, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return nil, 0, false, nil
	}
	if err != nil {
		return nil, 0, false, err
	}
	off := int64(0)
	for int(off) < len(data) {
		rest := data[off:]
		if len(rest) < journalHeaderLen {
			return recs, off, true, nil // torn header at tail
		}
		n := binary.BigEndian.Uint32(rest[0:4])
		if n > DefaultMaxFrame {
			// A length beyond any legal record is garbage; if nothing
			// readable follows it is indistinguishable from a torn append,
			// otherwise the file is damaged mid-way.
			if int64(len(data))-off <= int64(journalHeaderLen)+int64(n) {
				return recs, off, true, nil
			}
			return nil, 0, false, fmt.Errorf("%w: %s: record at offset %d claims %d bytes (max %d)",
				errJournalCorrupt, path, off, n, DefaultMaxFrame)
		}
		if int64(len(rest)) < int64(journalHeaderLen)+int64(n) {
			return recs, off, true, nil // torn body at tail
		}
		payload := rest[journalHeaderLen : journalHeaderLen+int(n)]
		if crc := binary.BigEndian.Uint32(rest[4:8]); crc != crc32.ChecksumIEEE(payload) {
			return nil, 0, false, fmt.Errorf("%w: %s: CRC mismatch on record at offset %d",
				errJournalCorrupt, path, off)
		}
		r, err := parseJournalPayload(payload)
		if err != nil {
			return nil, 0, false, fmt.Errorf("%w: %s: offset %d: %v", errJournalCorrupt, path, off, err)
		}
		recs = append(recs, r)
		off += int64(journalHeaderLen) + int64(n)
	}
	return recs, off, false, nil
}

// openJournalAppend opens (creating if needed) a journal for appending at
// goodLen, truncating any torn tail left by a crash mid-append. A created
// file is durable only after the caller's syncDir.
func openJournalAppend(path string, goodLen int64, nextSeq uint64) (*journal, error) {
	f, err := os.OpenFile(path, os.O_RDWR|os.O_CREATE, 0o644)
	if err != nil {
		return nil, err
	}
	if err := f.Truncate(goodLen); err != nil {
		_ = f.Close()
		return nil, err
	}
	if _, err := f.Seek(goodLen, io.SeekStart); err != nil {
		_ = f.Close()
		return nil, err
	}
	return &journal{f: f, size: goodLen, nextSeq: nextSeq}, nil
}

// add encodes r into the pending group under the next sequence number.
func (j *journal) add(r journalRec) {
	r.seq = j.nextSeq
	j.nextSeq++
	j.pending = appendJournalRecord(j.pending, r)
	j.n++
}

// take hands over the pending group and its record count, and starts the
// next group.
func (j *journal) take() (buf []byte, n int) {
	buf, n = j.pending, j.n
	j.pending, j.n = nil, 0
	return buf, n
}

// write appends a group taken from the journal in one Write. Durability
// requires a following sync() before anything is acknowledged.
func (j *journal) write(buf []byte) error {
	n, err := j.f.Write(buf)
	j.size += int64(n)
	return err
}

func (j *journal) sync() error { return j.f.Sync() }

// reset truncates the journal after a compaction snapshot landed. The
// sequence keeps counting — replay relies on seq to order journal records
// relative to the snapshot.
func (j *journal) reset() error {
	if err := j.f.Truncate(0); err != nil {
		return err
	}
	if _, err := j.f.Seek(0, io.SeekStart); err != nil {
		return err
	}
	j.size = 0
	return j.f.Sync()
}

func (j *journal) close() error { return j.f.Close() }

// --- shard snapshot ------------------------------------------------------

// writeShardSnapshot atomically persists a shard's full durable state:
// every envelope's counters and the canonical model, covering all journal
// records with seq <= seq. The rename is on disk when it returns, so the
// caller may truncate the journal.
func writeShardSnapshot(dir string, shard int, seq uint64, entries []CounterEntry, model []byte) error {
	body := []byte(shardSnapMagic)
	body = binary.BigEndian.AppendUint64(body, seq)
	body = AppendCounterTable(body, entries)
	body = binary.BigEndian.AppendUint32(body, uint32(len(model)))
	body = append(body, model...)
	body = binary.BigEndian.AppendUint32(body, crc32.ChecksumIEEE(body))
	return replaceFile(dir, snapshotPath(dir, shard), body)
}

// replaceFile puts body at path in dir durably: a tmp file written and
// fsynced, renamed over path, and the directory fsynced, so a crash leaves
// either the old file or the new one, whole.
func replaceFile(dir, path string, body []byte) error {
	tmp := path + ".tmp"
	f, err := os.OpenFile(tmp, os.O_WRONLY|os.O_CREATE|os.O_TRUNC, 0o644)
	if err != nil {
		return err
	}
	if _, err := f.Write(body); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Sync(); err != nil {
		_ = f.Close()
		return err
	}
	if err := f.Close(); err != nil {
		return err
	}
	if err := os.Rename(tmp, path); err != nil {
		return err
	}
	return syncDir(dir)
}

// loadSnapshot installs the snapshot at path into the shard and returns
// the journal sequence it covers; a missing file installs nothing and
// covers nothing. Damage is errJournalCorrupt and leaves the shard as it
// was.
func (sh *shard) loadSnapshot(path string) (seq uint64, err error) {
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return 0, nil
	}
	if err != nil {
		return 0, err
	}
	fail := func(msg string) (uint64, error) {
		return 0, fmt.Errorf("%w: snapshot %s: %s", errJournalCorrupt, path, msg)
	}
	if len(data) < len(shardSnapMagic)+8+4+4+4 {
		return fail("truncated")
	}
	if string(data[:len(shardSnapMagic)]) != shardSnapMagic {
		return fail("bad magic")
	}
	crcAt := len(data) - 4
	if binary.BigEndian.Uint32(data[crcAt:]) != crc32.ChecksumIEEE(data[:crcAt]) {
		return fail("CRC mismatch")
	}
	p := data[len(shardSnapMagic):crcAt]
	entries, rest, err := cutCounterTable(p[8:])
	if err != nil {
		return fail(err.Error())
	}
	if len(rest) < 4 || int(binary.BigEndian.Uint32(rest)) != len(rest)-4 {
		return fail("model length mismatch")
	}
	model, err := core.ParseRecords(rest[4:], 4)
	if err != nil {
		return fail(err.Error())
	}
	for _, e := range entries {
		sh.env([]byte(e.IMSI)).SetCounters(e.Send, e.Recv)
	}
	sh.model = model
	return binary.BigEndian.Uint64(p), nil
}

// --- recovery ------------------------------------------------------------

// shardRecovery counts what recovering one shard found.
type shardRecovery struct {
	SnapSeq  uint64
	NextSeq  uint64
	GoodLen  int64 // intact journal prefix length (append resumes here)
	Replayed int   // journal records applied past the snapshot
	Skipped  int   // journal records deduped (seq or counter already covered)
	TornTail bool  // a torn final record was truncated
}

// quarantine moves a damaged durable file aside (ForceEmpty path) so the
// evidence survives while the node starts empty.
func quarantine(path string, logf func(string, ...any)) {
	if _, err := os.Stat(path); err != nil {
		return
	}
	dst := path + ".corrupt"
	if err := os.Rename(path, dst); err != nil {
		logf("seedfleetd: quarantine %s: %v", path, err)
		return
	}
	logf("seedfleetd: quarantined damaged file as %s", dst)
}

// restore rebuilds the shard from its files: it loads the snapshot, then
// replays every later journal record through apply, the code the live
// handlers ran before the record's ack left. Damage refuses recovery
// unless ForceEmpty, which quarantines the damaged file and keeps the
// state recovered so far (empty in the worst case) — never a silently
// wrong model. Without ForceEmpty it only reads the files.
func (sh *shard) restore() (shardRecovery, error) {
	cfg := &sh.srv.cfg
	refuse := func(err error) (shardRecovery, error) {
		return shardRecovery{}, fmt.Errorf("shard %d: %w (use -force-empty to quarantine and start empty)", sh.idx, err)
	}
	var rec shardRecovery
	snapPath := snapshotPath(cfg.JournalDir, sh.idx)
	snapSeq, err := sh.loadSnapshot(snapPath)
	if err != nil {
		if !cfg.ForceEmpty {
			return refuse(err)
		}
		cfg.Logf("seedfleetd: shard %d: %v — starting empty by -force-empty", sh.idx, err)
		quarantine(snapPath, cfg.Logf)
	}
	rec.SnapSeq = snapSeq

	jPath := journalPath(cfg.JournalDir, sh.idx)
	recs, goodLen, torn, err := scanJournal(jPath)
	if err != nil {
		if !cfg.ForceEmpty {
			return refuse(err)
		}
		cfg.Logf("seedfleetd: shard %d: %v — starting empty by -force-empty", sh.idx, err)
		quarantine(jPath, cfg.Logf)
		// The snapshot may predate the damage; keep what it restored.
		recs, goodLen, torn = nil, 0, false
	}
	rec.GoodLen, rec.TornTail = goodLen, torn

	maxSeq := rec.SnapSeq
	for _, r := range recs {
		maxSeq = max(maxSeq, r.seq)
		if r.seq <= rec.SnapSeq {
			rec.Skipped++
			continue
		}
		_, err := sh.apply(r.kind, r.imsi, r.body)
		switch {
		case err == nil:
			rec.Replayed++
		case errors.Is(err, crypto5g.ErrReplay):
			rec.Skipped++ // already covered by snapshot counters
		case !cfg.ForceEmpty:
			// The CRC passed but the record does not apply: key mismatch
			// or deeper damage. Never guess.
			return refuse(fmt.Errorf("%w: journal seq %d does not apply: %v", errJournalCorrupt, r.seq, err))
		default:
			cfg.Logf("seedfleetd: shard %d: journal seq %d does not apply (%v) — dropped by -force-empty", sh.idx, r.seq, err)
		}
	}
	rec.NextSeq = maxSeq + 1

	// Unclean restart: suggestion seals since the snapshot were not
	// journaled, so jump every recovered downlink send counter past them.
	if rec.Replayed > 0 || rec.TornTail {
		for _, e := range sh.envs {
			send, recv := e.Counters()
			send[crypto5g.Downlink] += downlinkRecoverySkip
			e.SetCounters(send, recv)
		}
	}
	return rec, nil
}

// installCounters raises an envelope's counters to at least the handed-off
// values. Max semantics make journal replay of an install idempotent and
// never reopen a replay window.
func installCounters(e *crypto5g.Envelope, ent CounterEntry) {
	send, recv := e.Counters()
	for d := range 2 {
		send[d], recv[d] = max(send[d], ent.Send[d]), max(recv[d], ent.Recv[d])
	}
	e.SetCounters(send, recv)
}
