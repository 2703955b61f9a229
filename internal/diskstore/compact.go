package diskstore

import (
	"fmt"
	"os"
	"time"

	"ripple/internal/codec"
	"ripple/internal/trace"
)

// compactor is the background merge loop. Memtable flushes hint it after
// prepending a level-0 run; it merges any level that has accumulated
// compactTrigger runs into a single run one level down, repeating until the
// part is back under the trigger everywhere. Merges never block readers or
// writers: inputs stay live until the output run is durable and the manifest
// swap happens under the shard lock in one step.
type compactor struct {
	store *Store
	hints chan *partLog
	quit  chan struct{}
	done  chan struct{}
}

func newCompactor(s *Store) *compactor {
	c := &compactor{
		store: s,
		hints: make(chan *partLog, 128),
		quit:  make(chan struct{}),
		done:  make(chan struct{}),
	}
	go c.loop()
	return c
}

// hint nudges the compactor to look at pl. Non-blocking: a full hint queue
// is fine because every later flush re-hints.
func (c *compactor) hint(pl *partLog) {
	select {
	case c.hints <- pl:
	default:
	}
}

func (c *compactor) stop() {
	close(c.quit)
	<-c.done
}

func (c *compactor) loop() {
	defer close(c.done)
	for {
		select {
		case pl := <-c.hints:
			c.compactPart(pl)
		case <-c.quit:
			return
		}
	}
}

// compactPart merges pl's overfull levels until none remain. Errors are
// swallowed: background compaction is best-effort and the next flush hints
// again.
func (c *compactor) compactPart(pl *partLog) {
	pl.mergeMu.Lock()
	defer pl.mergeMu.Unlock()
	for {
		select {
		case <-c.quit:
			return
		default:
		}
		inputs, outLevel, dropTombs := pl.pickMerge(compactTrigger)
		if len(inputs) == 0 {
			return
		}
		if err := pl.mergeRuns(inputs, outLevel, dropTombs); err != nil {
			return
		}
	}
}

// pickMerge chooses the lowest level holding at least trigger runs and
// returns that whole level as merge input (newest first). dropTombs is true
// when the input span reaches the part's oldest run — nothing below could
// resurrect a deleted key, so tombstones can finally be discarded.
func (pl *partLog) pickMerge(trigger int) (inputs []*sstable, outLevel int, dropTombs bool) {
	pl.sh.mu.Lock()
	defer pl.sh.mu.Unlock()
	if pl.wal == nil || len(pl.runs) == 0 {
		return nil, 0, false
	}
	counts := make(map[int]int)
	for _, r := range pl.runs {
		counts[r.level]++
	}
	level := -1
	for l, n := range counts {
		if n >= trigger && (level < 0 || l < level) {
			level = l
		}
	}
	if level < 0 {
		return nil, 0, false
	}
	for _, r := range pl.runs {
		if r.level == level {
			inputs = append(inputs, r)
		}
	}
	dropTombs = inputs[len(inputs)-1] == pl.runs[len(pl.runs)-1]
	return inputs, level + 1, dropTombs
}

// mergeRuns k-way-merges inputs (newest first, contiguous in pl.runs) into
// one run at outLevel and swaps it in. Sequencing mirrors flushLocked: the
// output run is durable before the manifest names it, and the inputs are
// only deleted after the manifest swap, so a crash at any instant leaves a
// loadable part (at worst with orphan files the next open removes).
func (pl *partLog) mergeRuns(inputs []*sstable, outLevel int, dropTombs bool) error {
	s := pl.store
	if err := s.hook("compact:sst", pl.table, pl.part); err != nil {
		return err
	}
	start := time.Now()
	pl.sh.mu.Lock()
	seq := pl.nextSeq
	pl.nextSeq++
	pl.sh.mu.Unlock()
	var inBytes, inEntries int64
	for _, r := range inputs {
		inBytes += r.size
		inEntries += r.entries
	}
	final := s.sstPath(pl.table, pl.part, seq)
	tmp := final + ".tmp"
	sw, err := newSSTWriter(tmp, int(inEntries))
	if err != nil {
		return err
	}
	abort := func(err error) error {
		_ = sw.f.Close()
		_ = os.Remove(tmp)
		return err
	}

	iters := make([]*sstIter, len(inputs))
	valid := make([]bool, len(inputs))
	for i, r := range inputs {
		iters[i] = r.iter()
		valid[i] = iters[i].next()
	}
	type mergeRec struct {
		op   byte
		kbuf []byte
		vbuf []byte
		run  int
	}
	for {
		min := -1
		for i := range iters {
			if valid[i] && (min < 0 || codec.CompareKeys(iters[i].key, iters[min].key) < 0) {
				min = i
			}
		}
		if min < 0 {
			break
		}
		// CompareKeys can tie for keys that are not ==, so drain the whole
		// tied span from every run, then let the newest run (lowest input
		// index) win per distinct encoded key. Encoding is deterministic, so
		// byte equality is key equality.
		groupKey := iters[min].key
		var group []mergeRec
		for i := range iters {
			for valid[i] && codec.CompareKeys(iters[i].key, groupKey) == 0 {
				group = append(group, mergeRec{iters[i].op, iters[i].kbuf, iters[i].vbuf, i})
				valid[i] = iters[i].next()
			}
		}
		best := make(map[string]mergeRec, len(group))
		var order []string
		for _, r := range group {
			ks := string(r.kbuf)
			if prev, ok := best[ks]; !ok {
				best[ks] = r
				order = append(order, ks)
			} else if r.run < prev.run {
				best[ks] = r
			}
		}
		for _, ks := range order {
			r := best[ks]
			if dropTombs && r.op == opDelete {
				continue
			}
			if err := sw.add(r.op, r.kbuf, r.vbuf); err != nil {
				return abort(err)
			}
		}
	}
	for _, it := range iters {
		if it.err != nil {
			return abort(it.err)
		}
	}
	if err := s.fsyncFault(pl.table, pl.part); err != nil {
		return abort(err)
	}
	size, err := sw.finish()
	if err != nil {
		return err
	}
	if err := os.Rename(tmp, final); err != nil {
		_ = os.Remove(tmp)
		return err
	}
	s.syncDir()
	out, err := openSST(final, seq, outLevel)
	if err != nil {
		_ = os.Remove(final)
		return err
	}
	if err := s.hook("compact:manifest", pl.table, pl.part); err != nil {
		_ = out.close()
		return err
	}

	pl.sh.mu.Lock()
	if pl.wal == nil {
		pl.sh.mu.Unlock()
		_ = out.close()
		_ = os.Remove(final)
		return nil
	}
	// Flushes only prepend level-0 runs and merges on this part are
	// serialized by mergeMu, so the input span is still contiguous; locate
	// it by identity.
	at := -1
	for i, r := range pl.runs {
		if r == inputs[0] {
			at = i
			break
		}
	}
	if at < 0 || at+len(inputs) > len(pl.runs) {
		pl.sh.mu.Unlock()
		_ = out.close()
		_ = os.Remove(final)
		return fmt.Errorf("diskstore: merge inputs vanished from %s.%d", pl.table, pl.part)
	}
	newRuns := make([]*sstable, 0, len(pl.runs)-len(inputs)+1)
	newRuns = append(newRuns, pl.runs[:at]...)
	newRuns = append(newRuns, out)
	newRuns = append(newRuns, pl.runs[at+len(inputs):]...)
	if err := s.writeManifestFor(pl, newRuns, pl.nextSeq); err != nil {
		pl.sh.mu.Unlock()
		_ = out.close()
		_ = os.Remove(final)
		return err
	}
	pl.runs = newRuns
	for _, r := range inputs {
		s.lsm().RunCounts().Add(r.level, -1)
	}
	s.lsm().RunCounts().Add(outLevel, 1)
	pl.sh.mu.Unlock()

	for _, r := range inputs {
		_ = r.close()
		_ = os.Remove(r.path)
	}
	s.lsm().AddCompactions(1)
	s.lsm().AddCompactionBytes(size)
	s.tracer.Record(trace.KindCompaction, pl.table, 0, pl.part, inBytes-size, time.Since(start))
	return nil
}

// compact force-merges the part into a single run one level below its
// deepest, after flushing the memtable (Store.Compact).
func (pl *partLog) compact() error {
	pl.mergeMu.Lock()
	defer pl.mergeMu.Unlock()
	pl.sh.mu.Lock()
	err := pl.errLocked()
	if err == nil {
		err = pl.flushLocked()
	}
	inputs := append([]*sstable(nil), pl.runs...)
	maxLevel := 0
	for _, r := range inputs {
		if r.level > maxLevel {
			maxLevel = r.level
		}
	}
	pl.sh.mu.Unlock()
	if err != nil {
		return err
	}
	if len(inputs) == 0 {
		return nil
	}
	return pl.mergeRuns(inputs, maxLevel+1, true)
}
