package main

import (
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"

	"distlog"
	"distlog/internal/storage"
)

// The common setup of every workload: M=3 servers, N=2 replicas, one
// stream per client, library defaults for δ, send window and flush
// interval.
const (
	numServers = 3
	replicas   = 2
	lanDelay   = 200 * time.Microsecond // one-way, the paper's LAN regime
)

// storeKind selects what the servers store their log on.
type storeKind int

const (
	// compactedSegStores: SegStore with real fsync, a write-once
	// archive tier and a background Compactor; segments and volumes are
	// small so reclamation and retirement run many times per run.
	compactedSegStores storeKind = iota
	// segStores: SegStore with real fsync alone.
	segStores
	// modelledStores: the NVRAM+disk model, where a force costs a
	// memory write (Section 5.1).
	modelledStores
)

const (
	segmentBytes = 32 << 10
	volumeBytes  = 32 << 10
)

// rig is the log service one workload runs against: in-process servers
// on one memnet, with every layer boundary wrapped when tr is non-nil.
type rig struct {
	net     *distlog.Network
	kind    storeKind
	names   []string
	stores  []distlog.Store // unwrapped, for Usage
	served  []distlog.Store // what each server writes through
	epochs  []distlog.EpochHost
	archs   []*distlog.Archive
	comps   []*distlog.Compactor
	servers []*distlog.Server
	eps     []*traceEndpoint
	tr      *tracer
	hook    func(distlog.Store) distlog.Store
	dir     string

	// storesMu orders the sampler's liveBytes against restore swapping
	// the stores.
	storesMu sync.Mutex

	heapStart, heapEnd uint64    // live heap when the window opened and closed
	opened             time.Time // when the window opened
	// forcesBefore counts each server's store forces in its earlier
	// incarnations (see cycle).
	forcesBefore []uint64
}

// newRig starts the servers. hook, when non-nil, wraps each server's
// store (the sensitivity probe uses it to slow one boundary down).
func newRig(dir string, kind storeKind, tr *tracer, hook func(distlog.Store) distlog.Store) (*rig, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, err
	}
	r := &rig{net: distlog.NewNetwork(1), kind: kind, dir: dir, tr: tr, hook: hook}
	for i := 0; i < numServers; i++ {
		r.names = append(r.names, fmt.Sprintf("logserver-%d", i+1))
		r.epochs = append(r.epochs, distlog.NewMemEpochHost())
		if err := r.openStore(i); err != nil {
			r.close()
			return nil, err
		}
		r.servers = append(r.servers, nil)
		r.forcesBefore = append(r.forcesBefore, 0)
		r.startServer(i)
	}
	return r, nil
}

// openStore opens server i's store.
func (r *rig) openStore(i int) error {
	name := r.names[i]
	var store, served distlog.Store
	switch r.kind {
	case segStores:
		seg, err := distlog.OpenSegStore(filepath.Join(r.dir, name), distlog.SegOptions{SegmentBytes: segmentBytes})
		if err != nil {
			return err
		}
		store, served = seg, seg
	case compactedSegStores:
		arch, err := distlog.OpenArchive(filepath.Join(r.dir, name+"-archive"), distlog.ArchiveOptions{VolumeBytes: volumeBytes})
		if err != nil {
			return err
		}
		r.archs = append(r.archs, arch)
		seg, err := distlog.OpenSegStore(filepath.Join(r.dir, name), distlog.SegOptions{SegmentBytes: segmentBytes, Archive: arch})
		if err != nil {
			return err
		}
		reg := distlog.NewTelemetry()
		store, served = seg, storage.Instrument(seg, reg, "seg")
		r.comps = append(r.comps, distlog.NewCompactor(distlog.CompactorConfig{
			Store:          seg,
			Retire:         arch,
			Interval:       20 * time.Millisecond,
			Backoff:        50 * time.Millisecond,
			ForceHist:      reg.Histogram("storage.seg.force_latency_ns"),
			ForceP99Budget: uint64(10 * time.Millisecond),
		}))
	case modelledStores:
		g := distlog.DefaultDiskGeometry()
		g.Cylinders *= 8 // room for a minute of bulk appends
		s, _, _, err := distlog.NewModelledStore(g, 4)
		if err != nil {
			return err
		}
		store, served = s, s
	}
	if r.hook != nil {
		served = r.hook(served)
	}
	if i < len(r.stores) {
		r.stores[i], r.served[i] = store, served
	} else {
		r.stores, r.served = append(r.stores, store), append(r.served, served)
	}
	return nil
}

// startServer starts server i over its store, on a fresh endpoint at
// its fixed address.
func (r *rig) startServer(i int) {
	store := r.served[i]
	var ep distlog.Endpoint = r.net.Endpoint(r.names[i])
	epochs := r.epochs[i]
	if r.tr != nil {
		store = &traceStore{s: store, tr: r.tr}
		ep = r.wrap(ep, true)
		epochs = &traceEpochs{h: epochs, tr: r.tr}
	}
	r.servers[i] = distlog.NewServer(distlog.ServerConfig{Name: r.names[i], Store: store, Endpoint: ep, Epochs: epochs})
	r.servers[i].Start()
}

// snapshot stops every server, copies its store directory to snap and
// starts it again. Only plain SegStore servers can be snapshot.
func (r *rig) snapshot(snap string) error {
	return r.cycle(func(name string) error {
		return copyDir(filepath.Join(r.dir, name), filepath.Join(snap, name))
	})
}

// restore stops every server, puts the store directories saved by
// snapshot back and starts the servers over them: the log service is
// as it was, except that the epoch representatives keep their values,
// so the next client incarnation still gets a higher epoch.
func (r *rig) restore(snap string) error {
	return r.cycle(func(name string) error {
		dir := filepath.Join(r.dir, name)
		if err := os.RemoveAll(dir); err != nil {
			return err
		}
		return copyDir(filepath.Join(snap, name), dir)
	})
}

// cycle stops each server, closes its store, applies fn to its name,
// and reopens and restarts it.
func (r *rig) cycle(fn func(name string) error) error {
	if r.kind != segStores {
		return fmt.Errorf("rig: only plain SegStore servers can be snapshot")
	}
	r.storesMu.Lock()
	defer r.storesMu.Unlock()
	for i, name := range r.names {
		r.forcesBefore[i] += r.servers[i].Stats().ForceRounds
		r.servers[i].Stop()
		r.stores[i].Close()
		if err := fn(name); err != nil {
			return err
		}
		if err := r.openStore(i); err != nil {
			return err
		}
		r.startServer(i)
	}
	return nil
}

// copyDir copies the regular files of src into a new directory dst.
func copyDir(src, dst string) error {
	if err := os.MkdirAll(dst, 0o755); err != nil {
		return err
	}
	ents, err := os.ReadDir(src)
	if err != nil {
		return err
	}
	for _, e := range ents {
		if !e.Type().IsRegular() {
			continue
		}
		data, err := os.ReadFile(filepath.Join(src, e.Name()))
		if err != nil {
			return err
		}
		if err := os.WriteFile(filepath.Join(dst, e.Name()), data, 0o644); err != nil {
			return err
		}
	}
	return nil
}

func (r *rig) wrap(ep distlog.Endpoint, server bool) distlog.Endpoint {
	w := wrapEndpoint(ep, r.tr, server)
	switch w := w.(type) {
	case *traceEndpoint:
		r.eps = append(r.eps, w)
	case traceFlipEndpoint:
		r.eps = append(r.eps, w.traceEndpoint)
	}
	return w
}

// open runs client initialization for id: distlog.Open over a fresh
// endpoint at the client's fixed address (a rebooted node keeps it).
func (r *rig) open(id distlog.ClientID) (*distlog.Client, error) {
	var ep distlog.Endpoint = r.net.Endpoint(fmt.Sprintf("client-%d", id))
	if r.tr != nil {
		ep = r.wrap(ep, false)
	}
	return distlog.Open(distlog.ClientConfig{
		ClientID: id,
		Servers:  r.names,
		N:        replicas,
		Endpoint: ep,
	})
}

// openWindow marks the start of a workload's measured window: it
// measures the live heap and turns tracing on.
func (r *rig) openWindow() {
	r.heapStart = liveHeap()
	r.tr.startWindow()
	r.opened = time.Now()
}

// closeWindow turns tracing off and measures the live heap.
func (r *rig) closeWindow() {
	r.tr.endWindow()
	r.heapEnd = liveHeap()
}

// setDelay puts the LAN latency on every link; clearDelay removes it.
func (r *rig) setDelay()   { r.net.SetFaults(distlog.Faults{FixedDelay: lanDelay}) }
func (r *rig) clearDelay() { r.net.SetFaults(distlog.Faults{}) }

// liveBytes sums the servers' online store sizes.
func (r *rig) liveBytes() int64 {
	r.storesMu.Lock()
	defer r.storesMu.Unlock()
	var n int64
	for _, s := range r.stores {
		if u, ok := s.(storage.UsageReporter); ok {
			n += u.Usage().LiveBytes
		}
	}
	return n
}

// serverStats sums the servers' counters.
func (r *rig) serverStats() distlog.ServerStats {
	var sum distlog.ServerStats
	for _, s := range r.servers {
		st := s.Stats()
		sum.PacketsReceived += st.PacketsReceived
		sum.PacketsDropped += st.PacketsDropped
		sum.RecordsWritten += st.RecordsWritten
		sum.Forces += st.Forces
		sum.MissingIntervals += st.MissingIntervals
		sum.Shed += st.Shed
		sum.BusySent += st.BusySent
		sum.QueueSheds += st.QueueSheds
		sum.ForceRounds += st.ForceRounds
		sum.ForcesCoalesced += st.ForcesCoalesced
	}
	return sum
}

// maxStoreForces returns the most store forces any one server has run.
func (r *rig) maxStoreForces() uint64 {
	var most uint64
	for i, s := range r.servers {
		most = max(most, r.forcesBefore[i]+s.Stats().ForceRounds)
	}
	return most
}

// compactorStats sums the compactors' counters and the archives'
// volume retirements.
func (r *rig) compactorStats() (reclaimed, retired, deferred uint64) {
	for _, c := range r.comps {
		st := c.Stats()
		reclaimed += st.Reclaimed
		deferred += st.Deferred
	}
	for _, a := range r.archs {
		retired += a.Retired()
	}
	return reclaimed, retired, deferred
}

// flushRPCs records the paired RPCs of every wrapped endpoint.
func (r *rig) flushRPCs() {
	for _, ep := range r.eps {
		ep.flush()
	}
}

func (r *rig) close() {
	for _, c := range r.comps {
		c.Stop()
	}
	for _, s := range r.servers {
		s.Stop()
	}
	for _, s := range r.stores {
		s.Close()
	}
	for _, a := range r.archs {
		a.Close()
	}
	os.RemoveAll(r.dir)
}
