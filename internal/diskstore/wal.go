package diskstore

import (
	"bufio"
	"encoding/binary"
	"errors"
	"fmt"
	"hash/crc32"
	"io"
	"os"
	"runtime"
	"time"
)

// WAL record layout: [4B crc32][1B op][4B klen][4B vlen][key bytes][value bytes]
// op 1 = put, 2 = delete (vlen = 0). The checksum covers everything after
// itself, so a torn tail (partial header, partial payload, or bit rot in the
// last unsynced page) is detected and clipped at the last whole record rather
// than treated as fatal.
const (
	opPut    = 1
	opDelete = 2

	walHdrLen = 13
	// maxRecordLen bounds a single key or value so a corrupt length field
	// cannot drive a giant allocation during replay.
	maxRecordLen = 1 << 30
)

// wal is one table-part's write-ahead log: an append handle plus a buffered
// writer. Appends go to the buffer; group commit (or Flush) drains and fsyncs
// it. The file is truncated to empty each time the memtable it shadows is
// flushed to an SSTable, so its size — and therefore replay time on open —
// is bounded by the memtable budget, not by table history.
type wal struct {
	path string
	file *os.File
	w    *bufio.Writer
	size int64
}

func openWAL(path string) (*wal, error) {
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, fmt.Errorf("diskstore: open %s: %w", path, err)
	}
	return &wal{path: path, file: f, w: bufio.NewWriter(f)}, nil
}

// append buffers one record. The caller holds the part lock.
func (l *wal) append(op byte, kbuf, vbuf []byte) error {
	var hdr [walHdrLen]byte
	hdr[4] = op
	binary.BigEndian.PutUint32(hdr[5:9], uint32(len(kbuf)))
	binary.BigEndian.PutUint32(hdr[9:13], uint32(len(vbuf)))
	crc := crc32.ChecksumIEEE(hdr[4:])
	crc = crc32.Update(crc, crc32.IEEETable, kbuf)
	crc = crc32.Update(crc, crc32.IEEETable, vbuf)
	binary.BigEndian.PutUint32(hdr[0:4], crc)
	if _, err := l.w.Write(hdr[:]); err != nil {
		return err
	}
	if _, err := l.w.Write(kbuf); err != nil {
		return err
	}
	if _, err := l.w.Write(vbuf); err != nil {
		return err
	}
	l.size += walHdrLen + int64(len(kbuf)) + int64(len(vbuf))
	return nil
}

// sync drains the buffer and fsyncs, making everything appended so far
// durable against power loss.
func (l *wal) sync() error {
	if err := l.w.Flush(); err != nil {
		return err
	}
	return l.file.Sync()
}

// reset truncates the log to empty after its contents were flushed to an
// SSTable. The truncation is fsynced so a clean close is genuinely
// replay-free on the next open.
func (l *wal) reset() error {
	l.w.Reset(io.Discard) // drop any buffered tail; it is in the SSTable now
	if err := l.file.Truncate(0); err != nil {
		return err
	}
	if _, err := l.file.Seek(0, io.SeekStart); err != nil {
		return err
	}
	if err := l.file.Sync(); err != nil {
		return err
	}
	l.w.Reset(l.file)
	l.size = 0
	return nil
}

func (l *wal) close() error {
	return l.file.Close()
}

// replay scans the log from the start, calling apply for every whole,
// checksummed record. Any torn tail — a short header, short payload, or
// checksum mismatch — ends the scan and is truncated away so appends resume
// at a clean boundary. It returns the number of valid bytes replayed.
func (l *wal) replay(apply func(op byte, kbuf, vbuf []byte) error) (int64, error) {
	if _, err := l.file.Seek(0, io.SeekStart); err != nil {
		return 0, err
	}
	r := bufio.NewReader(l.file)
	var off int64
	var hdr [walHdrLen]byte
scan:
	for {
		if _, err := io.ReadFull(r, hdr[:]); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break // torn tail: drop the partial record
			}
			return 0, err
		}
		crc := binary.BigEndian.Uint32(hdr[0:4])
		op := hdr[4]
		klen := binary.BigEndian.Uint32(hdr[5:9])
		vlen := binary.BigEndian.Uint32(hdr[9:13])
		if (op != opPut && op != opDelete) || klen > maxRecordLen || vlen > maxRecordLen {
			break // garbage header: clip here
		}
		buf := make([]byte, int(klen)+int(vlen))
		if _, err := io.ReadFull(r, buf); err != nil {
			if errors.Is(err, io.EOF) || errors.Is(err, io.ErrUnexpectedEOF) {
				break scan
			}
			return 0, err
		}
		sum := crc32.ChecksumIEEE(hdr[4:])
		sum = crc32.Update(sum, crc32.IEEETable, buf)
		if sum != crc {
			break // torn or rotted tail: clip
		}
		if err := apply(op, buf[:klen], buf[klen:]); err != nil {
			return 0, err
		}
		off += walHdrLen + int64(klen) + int64(vlen)
	}
	l.size = off
	// Truncate any partial tail so appends start at a clean boundary.
	if err := l.file.Truncate(off); err != nil {
		return 0, err
	}
	if _, err := l.file.Seek(off, io.SeekStart); err != nil {
		return 0, err
	}
	l.w = bufio.NewWriter(l.file)
	return off, nil
}

// syncRequest is one durable write waiting for its WAL to reach the disk.
type syncRequest struct {
	pl   *partLog
	errc chan error
}

// syncer is the store's group-commit loop. Writers append to the WAL buffer
// under the part lock, then hand the fsync to this loop and wait. While one
// fsync is in flight every later arrival queues up, so the next pass commits
// them all with a single fsync per touched part — the classic group-commit
// amortization that makes durable writes affordable under concurrency.
type syncer struct {
	store *Store
	reqs  chan syncRequest
	quit  chan struct{}
	done  chan struct{}
}

func newSyncer(s *Store) *syncer {
	sy := &syncer{
		store: s,
		reqs:  make(chan syncRequest, 256),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go sy.loop()
	return sy
}

func (sy *syncer) loop() {
	defer close(sy.done)
	for {
		var first syncRequest
		select {
		case first = <-sy.reqs:
		case <-sy.quit:
			sy.failPending()
			return
		}
		batch := append(make([]syncRequest, 0, 8), first)
		if w := sy.store.gcWindow; w > 0 {
			time.Sleep(w) // widen the batch at the cost of commit latency
		}
	drain:
		for {
			select {
			case r := <-sy.reqs:
				batch = append(batch, r)
			default:
				break drain
			}
		}
		// The cohort that the previous fsync acknowledged is appending right
		// now; a few scheduler yields collect it into this batch without a
		// timer. Stop once two consecutive yields surface nothing new.
		for empty := 0; empty < 2; {
			runtime.Gosched()
			grew := false
		regather:
			for {
				select {
				case r := <-sy.reqs:
					batch = append(batch, r)
					grew = true
				default:
					break regather
				}
			}
			if grew {
				empty = 0
			} else {
				empty++
			}
		}
		// Count the batch before any waiter is acknowledged, so a writer
		// that returns always finds its batch in the histogram.
		sy.store.lsm().GroupCommitBatches().Observe(int64(len(batch)))
		// One fsync per distinct part in the batch; every waiter on that
		// part is acknowledged by it.
		var order []*partLog
		waiters := make(map[*partLog][]chan error, 4)
		for _, r := range batch {
			if _, ok := waiters[r.pl]; !ok {
				order = append(order, r.pl)
			}
			waiters[r.pl] = append(waiters[r.pl], r.errc)
		}
		for _, pl := range order {
			err := pl.syncWAL()
			for _, c := range waiters[pl] {
				c <- err
			}
		}
	}
}

// failPending drains whatever is already queued when the store closes.
func (sy *syncer) failPending() {
	for {
		select {
		case r := <-sy.reqs:
			r.errc <- errClosed()
		default:
			return
		}
	}
}

func (sy *syncer) stop() {
	close(sy.quit)
	<-sy.done
}

// await hands one part's WAL fsync to the group-commit loop and waits for
// the batch that carries it.
func (sy *syncer) await(pl *partLog) error {
	errc := make(chan error, 1)
	select {
	case sy.reqs <- syncRequest{pl: pl, errc: errc}:
	case <-sy.quit:
		return errClosed()
	}
	select {
	case err := <-errc:
		return err
	case <-sy.done:
		// The loop exited while we waited; it may have answered first.
		select {
		case err := <-errc:
			return err
		default:
			return errClosed()
		}
	}
}
