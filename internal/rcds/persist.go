package rcds

import (
	"bufio"
	"fmt"
	"io"
	"os"

	"snipe/internal/xdr"
)

// Persistence: SNIPE targets "long-term distributed computing
// applications and data stores", so an RC server must survive restarts
// with its catalog intact. A snapshot file holds what the replica holds:
// the catalog entries SnapshotPage serves (elements, tombstones,
// registers), the version vector and compaction floors, the Lamport and
// sequence counters, and whatever op-log tail compaction has left. The
// catalog is saved as it stands, not replayed from the log, so a
// compacted replica (-data with -compact-keep) restarts whole; it then
// converges with its peers through normal anti-entropy, catching up on
// whatever it missed while down.
//
// File format, every field in the xdr encoding of the wire protocol:
//
//	string  magic "SNIPE-RC-SNAPSHOT-2"
//	string  origin
//	uint64  lamport, uint64 seq
//	vector  version vector, vector compaction floors
//	list    catalog entries (assertions, any order)
//	list    op-log entries (assertions, any order)

// snapshotMagic guards against loading foreign files.
const snapshotMagic = "SNIPE-RC-SNAPSHOT-2"

// snapshotEntryHint is what SaveTo reserves per assertion: 49 bytes of
// fixed fields and length prefixes plus the strings, which for a process
// URN with a short name, value and origin come to 100. A catalog of
// longer ones costs the encoder one more doubling, not a dozen.
const snapshotEntryHint = 112

// snapshotMagicV1 marks the format that held only the op log, from
// which a compacted catalog could not be rebuilt.
const snapshotMagicV1 = "SNIPE-RC-SNAPSHOT-1"

// SaveTo writes a snapshot of the replica's state.
func (s *Store) SaveTo(w io.Writer) error {
	s.mu.Lock()
	entries, logged := 0, 0
	for _, h := range s.catalogs {
		entries += len(h.entries)
	}
	for _, l := range s.logs {
		logged += l.n
	}
	// Sized once from the counts: the store lock is held until the last
	// byte is encoded, and a buffer doubling its way up to a 1M-URI
	// catalog would copy the snapshot a dozen times under it.
	e := xdr.NewEncoder(1<<10 + (entries+logged)*snapshotEntryHint)
	e.PutString(snapshotMagic)
	e.PutString(s.origin)
	e.PutUint64(s.lamport)
	e.PutUint64(s.seq)
	s.vv.Encode(e)
	VersionVector(s.floor).Encode(e)
	e.PutUint32(uint32(entries))
	for uri, h := range s.catalogs {
		for i := range h.entries {
			a := s.assertion(uri, &h.entries[i])
			a.Encode(e)
		}
	}
	e.PutUint32(uint32(logged))
	for _, l := range s.logs {
		for _, c := range l.chunks {
			for i := range c.ops {
				if c.have&(1<<i) != 0 {
					a := s.assertion(c.ops[i].uri, &c.ops[i].e)
					a.Encode(e)
				}
			}
		}
	}
	s.mu.Unlock()
	_, err := w.Write(e.Bytes())
	return err
}

// LoadStore reads a snapshot written by SaveTo and reconstructs the
// replica.
func LoadStore(r io.Reader) (*Store, error) {
	data, err := io.ReadAll(r)
	if err != nil {
		return nil, fmt.Errorf("rcds: reading snapshot: %w", err)
	}
	d := xdr.NewDecoder(data)
	magic, err := d.StringMax(64)
	if err == nil && magic == snapshotMagicV1 {
		return nil, fmt.Errorf("rcds: snapshot is in the retired format %q (op log only); this build reads %q: start the replica without the file and let it sync from a peer",
			snapshotMagicV1, snapshotMagic)
	}
	if err != nil || magic != snapshotMagic {
		return nil, fmt.Errorf("rcds: not an RC snapshot (magic %q, err %v)", magic, err)
	}
	origin, err := d.StringMax(maxWireURI)
	if err != nil {
		return nil, err
	}
	s := NewStore(origin)
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.lamport, err = d.Uint64(); err != nil {
		return nil, err
	}
	if s.seq, err = d.Uint64(); err != nil {
		return nil, err
	}
	if s.vv, err = DecodeVersionVector(d); err != nil {
		return nil, err
	}
	floor, err := DecodeVersionVector(d)
	if err != nil {
		return nil, err
	}
	s.floor = floor
	entries, err := DecodeAssertions(d)
	if err != nil {
		return nil, err
	}
	for i := range entries {
		a := &entries[i]
		h := heldLocked(s, a.URI)
		s.applyLocked(h.uri, h.entries, newEntry(a, originLocked(s, a.Origin)))
	}
	logged, err := DecodeAssertions(d)
	if err != nil {
		return nil, err
	}
	// The vector was saved, so the log goes back as it was, holes and
	// all, without recordLocked's walk.
	for i := range logged {
		a := &logged[i]
		o := originLocked(s, a.Origin)
		s.logs[o].put(a.Seq, logOp{heldLocked(s, a.URI).uri, newEntry(a, o)})
	}
	if err := d.Finish(); err != nil {
		return nil, err
	}
	return s, nil
}

// SaveFile snapshots the store to path atomically (write to a temp
// file, then rename).
func (s *Store) SaveFile(path string) error {
	tmp := path + ".tmp"
	f, err := os.Create(tmp)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	if err := s.SaveTo(w); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := w.Flush(); err != nil {
		f.Close()
		os.Remove(tmp)
		return err
	}
	if err := f.Close(); err != nil {
		os.Remove(tmp)
		return err
	}
	return os.Rename(tmp, path)
}

// LoadFile reads a snapshot from path; a missing file yields a fresh
// store with the given origin (first boot).
func LoadFile(path, origin string) (*Store, error) {
	f, err := os.Open(path)
	if os.IsNotExist(err) {
		return NewStore(origin), nil
	}
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return LoadStore(bufio.NewReader(f))
}
