package main

import (
	"bytes"
	"encoding/binary"
	"errors"
	"fmt"
	"sync"
	"sync/atomic"
	"time"

	"distlog"
)

// bulk-append: two client logs, one writer each, appending 100-byte
// records (ET1's mean record size) and forcing every 64.
const (
	bulkWriters = 2
	bulkRecord  = 100
	bulkBatch   = 64
)

// logAPI is what a bulk writer calls: the plain log or its trace
// wrapper.
type logAPI interface {
	WriteLog(data []byte) (distlog.LSN, error)
	Force() error
	OpenCursor(from distlog.LSN, dir distlog.Direction) (distlog.Cursor, error)
}

type bulkBench struct {
	r       *rig
	seed    int64
	clients []*distlog.Client
	logs    []logAPI
	lsns    [][]distlog.LSN // acknowledged records per writer, in order
	acked   atomic.Int64    // acknowledged user bytes
}

func setupBulk(o *options, r *rig) (workload, error) {
	b := &bulkBench{r: r, seed: o.seed, lsns: make([][]distlog.LSN, bulkWriters)}
	for w := 0; w < bulkWriters; w++ {
		c, err := r.open(distlog.ClientID(w + 1))
		if err != nil {
			b.close()
			return nil, err
		}
		b.clients = append(b.clients, c)
		var l logAPI = c
		if r.tr != nil {
			l = &traceLog{l: c, tr: r.tr}
		}
		b.logs = append(b.logs, l)
	}
	return b, nil
}

// recordData fills buf with record i of writer w: a splitmix64 stream
// keyed by the seed, the writer and the record number.
func recordData(buf []byte, seed int64, w, i int) {
	x := uint64(seed)*0x9E3779B97F4A7C15 ^ uint64(w)<<48 ^ uint64(i)
	for off := 0; off < len(buf); off += 8 {
		x += 0x9E3779B97F4A7C15
		z := x
		z = (z ^ z>>30) * 0xBF58476D1CE4E5B9
		z = (z ^ z>>27) * 0x94D049BB133111EB
		z ^= z >> 31
		var b [8]byte
		binary.LittleEndian.PutUint64(b[:], z)
		copy(buf[off:], b[:])
	}
}

func (b *bulkBench) measure(warmOps int64, d time.Duration) (*phase, error) {
	b.r.setDelay()
	if _, err := b.loop(warmOps, 0); err != nil {
		return nil, fmt.Errorf("warm-up: %w", err)
	}
	c0 := make([]distlog.ClientStats, bulkWriters)
	for w, c := range b.clients {
		c0[w] = c.Stats()
	}
	s0 := b.r.serverStats()
	b.r.openWindow()
	ph, err := b.loop(0, d)
	b.r.closeWindow()
	for w, c := range b.clients {
		ph.client = clientSum(ph.client, clientDelta(c.Stats(), c0[w]))
	}
	ph.server = serverDelta(b.r.serverStats(), s0)
	return ph, err
}

// loop runs the writers until they have acknowledged n records between
// them (n > 0, the warm-up) or for d (the measured window). A failed
// batch ends its writer: the record sequence no longer matches
// recordData.
func (b *bulkBench) loop(n int64, d time.Duration) (*phase, error) {
	ph := &phase{window: d}
	var mu sync.Mutex
	var firstErr error
	var acked atomic.Int64
	var wg sync.WaitGroup
	start := time.Now()
	for w := 0; w < bulkWriters; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			var l *lane
			if b.r.tr != nil {
				l = b.r.tr.newLane()
				b.logs[w].(*traceLog).bound = l
			}
			log := b.logs[w]
			var local []sample
			var records, attempted, failed int64
			defer func() {
				mu.Lock()
				ph.lat = append(ph.lat, local...)
				ph.ops += records
				ph.attempted += attempted
				ph.failed += failed
				mu.Unlock()
			}()
			for n > 0 && acked.Load() < n || n == 0 && time.Since(start) < d {
				t0 := time.Now()
				f := l.beginOp()
				batch := make([]distlog.LSN, 0, bulkBatch)
				// The log keeps each record's bytes until N servers
				// acknowledge it, so every record gets its own slice.
				data := make([]byte, bulkBatch*bulkRecord)
				var err error
				for k := 0; k < bulkBatch && err == nil; k++ {
					buf := data[k*bulkRecord : (k+1)*bulkRecord]
					recordData(buf, b.seed, w, len(b.lsns[w])+k)
					var lsn distlog.LSN
					if lsn, err = log.WriteLog(buf); err == nil {
						batch = append(batch, lsn)
					}
				}
				if err == nil {
					err = log.Force()
				}
				l.exit(f, 0, 0, 0)
				t1 := time.Now()
				attempted += bulkBatch
				if err != nil {
					failed += bulkBatch
					mu.Lock()
					if firstErr == nil {
						firstErr = fmt.Errorf("writer %d: %w", w, err)
					}
					mu.Unlock()
					return
				}
				b.lsns[w] = append(b.lsns[w], batch...)
				b.acked.Add(bulkBatch * bulkRecord)
				acked.Add(bulkBatch)
				if n == 0 && t1.Sub(start) <= d {
					local = append(local, sample{at: t1.Sub(start), lat: t1.Sub(t0)})
					records += bulkBatch
				}
			}
		}(w)
	}
	wg.Wait()
	return ph, firstErr
}

// check scans each log forward and verifies that every acknowledged
// record is there with its seeded bytes.
func (b *bulkBench) check(ph *phase) error {
	b.r.clearDelay()
	want := make([]byte, bulkRecord)
	for w, lsns := range b.lsns {
		if len(lsns) == 0 {
			return fmt.Errorf("bulk-append: writer %d acknowledged nothing", w)
		}
		cur, err := b.logs[w].OpenCursor(lsns[0], distlog.Forward)
		if err != nil {
			return fmt.Errorf("bulk-append: writer %d: open cursor: %w", w, err)
		}
		i := 0
		for i < len(lsns) {
			rec, err := cur.Next()
			if errors.Is(err, distlog.ErrBeyondEnd) {
				break
			}
			if err != nil {
				cur.Close()
				return fmt.Errorf("bulk-append: writer %d: scan: %w", w, err)
			}
			if rec.LSN != lsns[i] {
				continue // a position this writer did not acknowledge
			}
			recordData(want, b.seed, w, i)
			if !rec.Present || !bytes.Equal(rec.Data, want) {
				cur.Close()
				return fmt.Errorf("bulk-append: writer %d: record %d (LSN %d) differs from what was written", w, i, rec.LSN)
			}
			i++
		}
		cur.Close()
		if i != len(lsns) {
			return fmt.Errorf("bulk-append: writer %d: scan found %d of %d acknowledged records", w, i, len(lsns))
		}
	}
	return nil
}

func (b *bulkBench) userBytes() int64 { return b.acked.Load() }

func (b *bulkBench) close() {
	for _, c := range b.clients {
		c.Close()
	}
}
