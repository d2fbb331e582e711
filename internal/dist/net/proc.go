package distnet

import (
	"fmt"
	"net"
	"strconv"
	"sync"
	"sync/atomic"
	"time"

	"repro/internal/dist"
	"repro/internal/mat"
	"repro/internal/telemetry"
)

// Reduction topologies for the transport's sum-style collectives.
const (
	// TopologyHub routes every collective through the coordinator, which
	// folds all parts itself: O(P·n) ingress at one process. It is the
	// default, the fallback, and the chaos-test oracle.
	TopologyHub = "hub"
	// TopologyTree arranges members in a deterministic binary tree keyed
	// by global rank: interior members fold their children's partial sums
	// with their own contribution and forward one payload upward, so
	// per-process wire volume is O(n·log P) worst-case per link and the
	// fold work is distributed. Results are bit-identical to hub: both
	// realize the canonical pairwise bracketing of dist/reduce.go.
	TopologyTree = "tree"
)

// defaultChunkElems is the tree pipeline's chunk size in float64
// elements (64 KiB payload chunks): large enough to amortize framing,
// small enough that folds overlap receives and peak buffering stays
// bounded.
const defaultChunkElems = 8192

// Config describes one process's place in a TCP training cluster.
type Config struct {
	// Listen makes this process the coordinator, bound to this TCP address.
	// Exactly one of Listen/Listener (coordinator) or Join (member) is set.
	Listen string
	// Listener optionally supplies a pre-bound listener (tests bind :0 and
	// read the port back via ListenAddr).
	Listener net.Listener
	// Join is the coordinator's address for a non-coordinator process.
	Join string

	// LocalRanks is how many global ranks this process hosts (≥1).
	LocalRanks int
	// WorldSize is the total rank count across all processes. Required on
	// the coordinator; on joiners it is an optional claim that must agree.
	WorldSize int
	// ConfigDigest fingerprints the training configuration; processes with
	// disagreeing digests are rejected at rendezvous rather than allowed to
	// diverge numerically mid-run.
	ConfigDigest uint64
	// Seed drives deterministic transport randomness (dial jitter, socket
	// fault draws).
	Seed uint64
	// Faults optionally injects deterministic socket-level faults on every
	// link (both directions).
	Faults *SocketFaultPlan

	// HeartbeatEvery is the liveness probe period (default 250ms).
	HeartbeatEvery time.Duration
	// PeerDeadline declares a silent peer dead (default 3s); it also sizes
	// the reconnect grace window.
	PeerDeadline time.Duration
	// RetransmitEvery re-sends unacknowledged requests (default 400ms).
	RetransmitEvery time.Duration
	// RendezvousTimeout bounds the initial join and each rejoin round
	// (default 30s).
	RendezvousTimeout time.Duration
	// RejoinWindow bounds how long the coordinator waits for survivors
	// after a death (default 2×PeerDeadline).
	RejoinWindow time.Duration
	// DialBackoffBase/DialBackoffMax shape reconnect backoff (defaults
	// 50ms/1s); DialTimeout bounds the whole dial loop (default
	// RendezvousTimeout).
	DialBackoffBase time.Duration
	DialBackoffMax  time.Duration
	DialTimeout     time.Duration
	// CollTimeout arms the coordinator's stuck-collective watchdog — the
	// transport-level equivalent of the in-process barrier watchdog. Zero
	// disables it. (Tree-topology allreduces bypass the coordinator's
	// data path and are covered by heartbeat liveness instead.)
	CollTimeout time.Duration

	// Topology selects the reduction topology (TopologyHub or
	// TopologyTree; default hub). The coordinator's choice is
	// authoritative: members learn the effective topology at rendezvous,
	// and joiners without a data listener are rejected by a tree
	// coordinator.
	Topology string
	// ChunkElems is the tree pipeline's chunk size in float64 elements
	// (default 8192). The chunking never changes result bits — the
	// canonical bracketing is per-element — only buffering and overlap.
	ChunkElems int

	// dataPort is the bound tree-data listener port, filled in by Start
	// before the join handshake.
	dataPort int
}

func (c Config) withDefaults() Config {
	def := func(d *time.Duration, v time.Duration) {
		if *d <= 0 {
			*d = v
		}
	}
	def(&c.HeartbeatEvery, 250*time.Millisecond)
	def(&c.PeerDeadline, 3*time.Second)
	def(&c.RetransmitEvery, 400*time.Millisecond)
	def(&c.RendezvousTimeout, 30*time.Second)
	def(&c.RejoinWindow, 2*c.PeerDeadline)
	def(&c.DialBackoffBase, 50*time.Millisecond)
	def(&c.DialBackoffMax, time.Second)
	def(&c.DialTimeout, c.RendezvousTimeout)
	if c.LocalRanks <= 0 {
		c.LocalRanks = 1
	}
	if c.Topology == "" {
		c.Topology = TopologyHub
	}
	if c.ChunkElems <= 0 {
		c.ChunkElems = defaultChunkElems
	}
	return c
}

// localColl accumulates this process's rank contributions to one
// collective; once every local rank has deposited, a single request frame
// carries them all to the coordinator.
type localColl struct {
	op    byte
	aux   uint32
	parts [][]byte
	have  int
	sent  bool
	res   []byte
	done  bool
	taken int
}

// Proc hosts this OS process's local ranks in a multi-process cluster. It
// owns the client link (and, on the coordinator process, the rendezvous
// service); each local rank drives a dist.Comm whose collectives ride the
// link.
type Proc struct {
	cfg   Config
	coord *coordinator
	link  *link
	tree  *treeEngine // nil unless this process opened a tree-data listener

	mu       sync.Mutex
	cond     *sync.Cond
	gen      uint32
	world    int
	baseRank int
	colls    map[uint64]*localColl
	failed   error
	closed   bool
	// seqFloor is the highest collective sequence number any worker has
	// used this generation. A later Run in the same generation starts its
	// workers above it, so sequence numbers never alias completed
	// collectives (whose cached results would otherwise be replayed).
	seqFloor uint64
	// treeOn records whether the current generation routes allreduce and
	// scalar collectives over the tree (the coordinator's startMsg is
	// authoritative, so a hub coordinator quietly idles a member's tree).
	rankA  atomic.Int32 // baseRank mirror for lock-free telemetry labels
	treeOn bool

	// Whole-process TCP traffic (payload + framing), both directions,
	// across control and tree-data connections. BenchmarkNetAllReduce
	// reads these to compare coordinator ingress across topologies.
	rxBytes atomic.Int64
	txBytes atomic.Int64
}

// countBytes accounts one frame's wire traffic to this process: the
// benchmark counters always, and the global plus per-rank telemetry
// counters when telemetry is on.
func (p *Proc) countBytes(dir string, payloadLen int) {
	n := int64(payloadLen + headerLen + trailerLen)
	if dir == "rx" {
		p.rxBytes.Add(n)
	} else {
		p.txBytes.Add(n)
	}
	if telemetry.Enabled() {
		telemetry.IncCounter(telemetry.MetricNetBytes, n,
			telemetry.Label{Key: "dir", Value: dir})
		// Per-rank attribution starts once rendezvous assigns this
		// process its base rank; handshake traffic before that would
		// otherwise be mislabeled as rank 0's on every process.
		if r := p.rankA.Load(); r >= 0 {
			telemetry.IncCounter(telemetry.MetricNetRankBytes, n,
				telemetry.Label{Key: "dir", Value: dir},
				telemetry.Label{Key: "rank", Value: strconv.Itoa(int(r))})
		}
	}
}

// NetBytes returns the cumulative TCP bytes this process has received and
// sent (payload + framing) across all its connections.
func (p *Proc) NetBytes() (rx, tx int64) {
	return p.rxBytes.Load(), p.txBytes.Load()
}

// Start joins (or forms) the cluster and blocks until generation 1 begins:
// every expected rank present, ranks assigned, collectives ready.
func Start(cfg Config) (*Proc, error) {
	cfg = cfg.withDefaults()
	isCoord := cfg.Listen != "" || cfg.Listener != nil
	if isCoord && cfg.Join != "" {
		return nil, fmt.Errorf("distnet: -listen and -join are mutually exclusive")
	}
	if !isCoord && cfg.Join == "" {
		return nil, fmt.Errorf("distnet: need -listen (coordinator) or -join ADDR (member)")
	}
	if isCoord && cfg.WorldSize < cfg.LocalRanks {
		return nil, fmt.Errorf("distnet: coordinator world size %d < local ranks %d", cfg.WorldSize, cfg.LocalRanks)
	}

	switch cfg.Topology {
	case TopologyHub, TopologyTree:
	default:
		return nil, fmt.Errorf("distnet: unknown topology %q (want %q or %q)",
			cfg.Topology, TopologyHub, TopologyTree)
	}

	p := &Proc{cfg: cfg, colls: map[uint64]*localColl{}}
	p.cond = sync.NewCond(&p.mu)
	p.rankA.Store(-1) // no per-rank byte attribution until rendezvous

	// A tree-topology process opens its member↔member data listener before
	// the join handshake so the advertised DataPort is already bound.
	if cfg.Topology == TopologyTree {
		tln, err := net.Listen("tcp", ":0")
		if err != nil {
			return nil, fmt.Errorf("distnet: tree data listen: %w", err)
		}
		p.tree = newTreeEngine(p, tln)
		p.cfg.dataPort = p.tree.port
	}

	addr := cfg.Join
	if isCoord {
		ln := cfg.Listener
		if ln == nil {
			var err error
			ln, err = net.Listen("tcp", cfg.Listen)
			if err != nil {
				p.Close()
				return nil, fmt.Errorf("distnet: listen %s: %w", cfg.Listen, err)
			}
		}
		p.coord = newCoordinator(&p.cfg, ln, p.countBytes)
		addr = ln.Addr().String()
	}

	// Every process — the coordinator included, over loopback — reaches the
	// collective engine through the same client link, so there is exactly
	// one code path to get right.
	p.link = newLink(&p.cfg, addr, isCoord, p.onResult, p.onFailure)
	p.link.count = p.countBytes
	if err := p.link.connect(); err != nil {
		p.Close()
		return nil, err
	}
	p.link.run()
	sm, err := p.link.rendezvous(1)
	if err != nil {
		p.Close()
		return nil, err
	}
	p.applyStart(sm)
	return p, nil
}

// applyStart installs a generation's start message: rank assignment plus
// the coordinator's authoritative topology and numerics choices.
func (p *Proc) applyStart(sm startMsg) {
	// Conform the kernel family before the generation runs: each process
	// calibrates FMA-vs-mul+add by timing at init, and the two families
	// round differently, so a member that raced its calibration the other
	// way would diverge from the cluster by an ulp per local op. The
	// rendezvous is a compute quiescent point, so flipping here is safe.
	mat.SetFMAKernels(sm.FMA != 0)
	p.mu.Lock()
	p.gen, p.world, p.baseRank = sm.Gen, int(sm.WorldSize), int(sm.BaseRank)
	p.seqFloor = 0 // wire sequences are generation-tagged; restart small
	p.rankA.Store(int32(p.baseRank))
	p.treeOn = p.tree != nil && sm.Topology == topoTree
	treeOn := p.treeOn
	p.mu.Unlock()
	if p.tree != nil {
		p.tree.install(sm)
	}
	if treeOn && telemetry.Enabled() {
		telemetry.SetGauge(telemetry.MetricNetTreeDepth, float64(sm.TreeDepth))
	}
}

// ListenAddr returns the coordinator's bound address ("" on members) —
// how a :0 test listener's real port is discovered.
func (p *Proc) ListenAddr() string {
	if p.coord == nil {
		return ""
	}
	return p.coord.ln.Addr().String()
}

// WorldSize returns the current generation's total rank count.
func (p *Proc) WorldSize() int { p.mu.Lock(); defer p.mu.Unlock(); return p.world }

// BaseRank returns this process's first global rank in the current
// generation.
func (p *Proc) BaseRank() int { p.mu.Lock(); defer p.mu.Unlock(); return p.baseRank }

// LocalRanks returns how many ranks this process hosts.
func (p *Proc) LocalRanks() int { return p.cfg.LocalRanks }

// Gen returns the current membership generation.
func (p *Proc) Gen() int { p.mu.Lock(); defer p.mu.Unlock(); return int(p.gen) }

// Err returns the failure that poisoned the current generation, if any.
func (p *Proc) Err() error { p.mu.Lock(); defer p.mu.Unlock(); return p.failed }

func (p *Proc) onResult(seq uint64, res collRes) {
	p.mu.Lock()
	if lc := p.colls[seq]; lc != nil && !lc.done {
		lc.res = res.Result
		lc.done = true
		p.cond.Broadcast()
	}
	p.mu.Unlock()
}

func (p *Proc) onFailure(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
}

// wireSeq tags a collective sequence number with its generation so a stale
// in-flight result from before a rejoin can never alias a live collective.
func wireSeq(gen uint32, seq uint64) uint64 {
	return uint64(gen)<<40 | (seq & (1<<40 - 1))
}

// collective deposits one local rank's contribution and blocks until the
// coordinator's result arrives. The last local rank to deposit sends the
// process's single request frame. Any generation failure (peer death,
// unreachable coordinator) surfaces as the in-process transport's poison
// panic, dist.ErrClusterPoisoned.
func (p *Proc) collective(slot int, op byte, aux uint32, payload []byte, seq uint64) []byte {
	p.mu.Lock()
	if p.failed != nil || p.closed {
		p.mu.Unlock()
		panic(dist.ErrClusterPoisoned)
	}
	gen := p.gen
	if seq > p.seqFloor {
		p.seqFloor = seq
	}
	ws := wireSeq(gen, seq)
	lc := p.colls[ws]
	if lc == nil {
		lc = &localColl{op: op, aux: aux, parts: make([][]byte, p.cfg.LocalRanks)}
		p.colls[ws] = lc
	}
	if lc.op != op {
		p.mu.Unlock()
		panic(fmt.Sprintf("distnet: local collective sequence mismatch at seq %d: %s vs %s",
			seq, opName(lc.op), opName(op)))
	}
	if lc.parts[slot] == nil {
		lc.parts[slot] = payload
		lc.have++
	}
	var req *collReq
	var toTree bool
	if lc.have == p.cfg.LocalRanks && !lc.sent {
		lc.sent = true
		// The last depositor sends the whole process's contribution: over
		// the tree for the sum-style collectives when the generation runs
		// tree topology, through the coordinator hub otherwise.
		if p.treeOn && (op == opAllReduce || op == opScalar) {
			toTree = true
		} else {
			req = &collReq{Op: op, Aux: aux, BaseRank: uint32(p.baseRank), Parts: lc.parts}
		}
	}
	p.mu.Unlock()
	if req != nil {
		p.link.sendRequest(ws, *req)
	}
	if toTree {
		// submit decodes the parts synchronously, so once every local rank
		// has taken the result the payload buffers are safe to recycle.
		p.tree.submit(ws, op, lc.parts)
	}

	p.mu.Lock()
	defer p.mu.Unlock()
	for !lc.done && p.failed == nil && !p.closed && p.gen == gen {
		p.cond.Wait()
	}
	if !lc.done {
		panic(dist.ErrClusterPoisoned)
	}
	res := lc.res
	lc.taken++
	if lc.taken == p.cfg.LocalRanks {
		delete(p.colls, ws)
		// Recycle the pooled wire-encoding scratch for the ops whose
		// payloads the transport itself encoded; barrier and byte-gather
		// payloads are caller-owned and must not be pooled.
		switch lc.op {
		case opAllReduce, opAllGather, opBroadcast, opScalar:
			for i, pb := range lc.parts {
				mat.PutBytes(pb)
				lc.parts[i] = nil
			}
		}
	}
	return res
}

// Run drives fn on every local rank (one goroutine each), recovering
// panics into dist.WorkerError exactly like the in-process cluster's
// RunWithRecovery, so elastic drivers handle both transports with one code
// path. An organic local panic withdraws the process from the cluster so
// remote survivors fail loudly and rejoin instead of hanging.
func (p *Proc) Run(fn func(c dist.Comm)) []error {
	p.mu.Lock()
	n := p.cfg.LocalRanks
	base, world, gen := p.baseRank, p.world, p.gen
	floor := p.seqFloor
	p.mu.Unlock()

	var emu sync.Mutex
	var errs []error
	var wg sync.WaitGroup
	wg.Add(n)
	for slot := 0; slot < n; slot++ {
		go func(slot int) {
			defer wg.Done()
			defer func() {
				if rec := recover(); rec != nil {
					emu.Lock()
					errs = append(errs, dist.WorkerError{Rank: base + slot, Err: rec})
					emu.Unlock()
					if rec != any(dist.ErrClusterPoisoned) {
						telemetry.IncCounter(telemetry.MetricWorkerFailures, 1)
						telemetry.Instant("worker_failure", base+slot,
							telemetry.Label{Key: "error", Value: fmt.Sprint(rec)})
						p.abortLocal(fmt.Errorf("distnet: local rank %d panicked: %v", base+slot, rec))
					}
				}
			}()
			fn(&netWorker{p: p, slot: slot, base: base, world: world, gen: gen, seq: floor})
		}(slot)
	}
	wg.Wait()
	return errs
}

// abortLocal withdraws a process whose own rank died organically: local
// siblings poison immediately; the severed connection walks the coordinator
// through its normal peer-death path so remote survivors shrink and rejoin.
func (p *Proc) abortLocal(err error) {
	p.mu.Lock()
	if p.failed == nil {
		p.failed = err
	}
	p.cond.Broadcast()
	p.mu.Unlock()
	p.link.close()
}

// Rejoin re-enters the cluster at the next generation after a peer death.
// It blocks until the coordinator has gathered every survivor and assigned
// fresh ranks; afterwards Run may be called again. Typical driver shape:
// reload the last checkpoint (see SyncSnapshot), Rejoin, Run.
func (p *Proc) Rejoin() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return fmt.Errorf("distnet: proc closed")
	}
	gen := p.gen
	p.colls = map[uint64]*localColl{}
	p.mu.Unlock()
	sm, err := p.link.rendezvous(gen + 1)
	if err != nil {
		return err
	}
	p.mu.Lock()
	p.failed = nil
	p.cond.Broadcast()
	p.mu.Unlock()
	p.applyStart(sm)
	return nil
}

// SyncSnapshot agrees on the generation's resume state: the coordinator
// process's blob (typically its latest checkpoint snapshot) is
// authoritative and every process receives a copy — members have no shared
// checkpoint directory, so this is how a joiner resumes bit-identically.
func (p *Proc) SyncSnapshot(local []byte) ([]byte, error) {
	p.mu.Lock()
	gen := p.gen
	p.mu.Unlock()
	return p.link.syncBlob(gen, local)
}

// Close leaves the cluster and releases the link (and, on the coordinator
// process, the rendezvous service).
func (p *Proc) Close() error {
	p.mu.Lock()
	if p.closed {
		p.mu.Unlock()
		return nil
	}
	p.closed = true
	p.cond.Broadcast()
	p.mu.Unlock()
	if p.link != nil {
		p.link.close()
	}
	if p.tree != nil {
		p.tree.close()
	}
	if p.coord != nil {
		p.coord.close()
	}
	return nil
}

// netWorker is one local rank's dist.Comm over the TCP transport. Rank,
// world size, and generation are pinned at Run time; collectives are
// numbered by a per-rank sequence counter, which every rank advances
// identically (the SPMD invariant the simulated cluster shares).
type netWorker struct {
	p     *Proc
	slot  int
	base  int
	world int
	gen   uint32
	seq   uint64
}

// Size implements dist.Comm.
func (w *netWorker) Size() int { return w.world }

// ID implements dist.Comm.
func (w *netWorker) ID() int { return w.base + w.slot }

func (w *netWorker) next() uint64 {
	w.seq++
	return w.seq
}

func (w *netWorker) countComm(op string, elems int) {
	if !telemetry.Enabled() {
		return
	}
	lbl := telemetry.Label{Key: "op", Value: op}
	telemetry.IncCounter(telemetry.MetricCommBytes, int64(8*elems), lbl)
	telemetry.IncCounter(telemetry.MetricCommCalls, 1, lbl)
}

// AllReduceMat implements dist.Comm; whichever topology carries the sum
// (hub fold at the coordinator, or distributed folds up the tree), the
// bracketing is the canonical pairwise order of dist/reduce.go — bitwise
// identical to the in-process cluster's accumulation.
func (w *netWorker) AllReduceMat(m *mat.Dense) *mat.Dense {
	w.countComm("allreduce", m.Rows()*m.Cols())
	res := w.p.collective(w.slot, opAllReduce, 0, encodeMatPooled(m), w.next())
	out, err := decodeMat(res)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	return out
}

// AllGatherMat implements dist.Comm.
func (w *netWorker) AllGatherMat(m *mat.Dense) []*mat.Dense {
	w.countComm("allgather", m.Rows()*m.Cols())
	res := w.p.collective(w.slot, opAllGather, 0, encodeMatPooled(m), w.next())
	parts, err := splitParts(res, w.world)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	out := make([]*mat.Dense, len(parts))
	for i, pb := range parts {
		if i == w.ID() {
			out[i] = m
			continue
		}
		dm, err := decodeMat(pb)
		if err != nil {
			panic(dist.ErrClusterPoisoned)
		}
		out[i] = dm
	}
	return out
}

// BroadcastMat implements dist.Comm.
func (w *netWorker) BroadcastMat(root int, m *mat.Dense) *mat.Dense {
	if root < 0 || root >= w.world {
		panic(fmt.Sprintf("dist: broadcast root %d out of range", root))
	}
	var payload []byte
	if w.ID() == root {
		w.countComm("broadcast", m.Rows()*m.Cols())
		payload = encodeMatPooled(m)
	} else {
		payload = []byte{}
	}
	res := w.p.collective(w.slot, opBroadcast, uint32(root), payload, w.next())
	if w.ID() == root {
		return m
	}
	out, err := decodeMat(res)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	return out
}

// AllReduceScalar implements dist.Comm; summed in the canonical pairwise
// order on whichever topology the generation runs, like the in-process
// worker's gather-then-fold.
func (w *netWorker) AllReduceScalar(v float64) float64 {
	res := w.p.collective(w.slot, opScalar, 0, encodeScalar(v), w.next())
	s, err := decodeScalar(res)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	return s
}

// Barrier implements dist.Barrierer: an empty collective every rank joins.
func (w *netWorker) Barrier() {
	w.p.collective(w.slot, opBarrier, 0, []byte{}, w.next())
}

// AllGatherBytes implements dist.ByteGatherer (checkpoint section gather).
func (w *netWorker) AllGatherBytes(b []byte) [][]byte {
	if b == nil {
		b = []byte{}
	}
	res := w.p.collective(w.slot, opGatherBytes, 0, b, w.next())
	parts, err := splitParts(res, w.world)
	if err != nil {
		panic(dist.ErrClusterPoisoned)
	}
	return parts
}

// splitParts decodes the coordinator's length-prefixed per-rank
// concatenation.
func splitParts(b []byte, world int) ([][]byte, error) {
	r := &byteReader{b: b}
	out := make([][]byte, 0, world)
	for r.off < len(r.b) {
		pb := r.bytes()
		if r.err != nil {
			return nil, r.err
		}
		out = append(out, append([]byte(nil), pb...))
	}
	if len(out) != world {
		return nil, fmt.Errorf("distnet: gather returned %d parts, world %d", len(out), world)
	}
	return out, nil
}

// ConfigDigestOf fingerprints the fields that must agree across processes
// for bit-identical training: FNV-1a over the caller-assembled field list.
func ConfigDigestOf(fields ...string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for _, f := range fields {
		for i := 0; i < len(f); i++ {
			h ^= uint64(f[i])
			h *= prime64
		}
		h ^= 0xff // field separator
		h *= prime64
	}
	return h
}
