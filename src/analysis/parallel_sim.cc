/**
 * @file
 * Time-parallel simulation engine (see parallel_sim.hh and DESIGN.md,
 * "Time-parallel simulation").
 *
 * Coordinate systems: every worker simulates in local coordinates —
 * cycle 0 is the first cycle after its checkpoint, seq 0 is the first
 * micro-op it fetches. Because the core fetch-executes along the
 * correct path and assigns one seq per dynamic instruction, worker j's
 * local seq s is absolute seq s + C_j where C_j is the checkpoint's
 * committed-uop count — a static offset known before the worker runs.
 * Cycles have no such luxury: the absolute cycle of an interval's
 * start is only known once every earlier interval is stitched, so the
 * stitcher aligns each worker's warmup *end* with the accepted
 * stream's end and rebases with the resulting signed delta.
 */

#include "analysis/parallel_sim.hh"

#include <algorithm>
#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <deque>
#include <functional>
#include <future>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "common/sync.hh"
#include "core/checkpoint.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"

namespace tea {

namespace {

/** Floor on the matched suffix a convergence check requires (cycles). */
constexpr Cycle kMinMatchCycles = 2048;

/** Per-leg cycle budget (matches Core::run's default). */
constexpr Cycle kLegMaxCycles = 2'000'000'000ULL;

/** Events per chunk: one worker frame, hand-off chunk or tail frame. */
constexpr std::size_t kChunkEvents = 4096;

/** Chunks interval 0 may stream ahead of the stitcher. */
constexpr std::size_t kHandoffChunks = 8;

// Fault-injection seams (common/failpoint); both raise FailpointError.
// sim.worker fires in a worker right after its warmup leg (interval 0
// has none, so at the start of its leg). Its hits are counted when the
// interval is claimed, in interval order, so `nth:N` deterministically
// faults interval N-1. sim.stitch fires in the stitcher once per chunk
// it drains (interval 0's hand-off, then each decoded frame).
Failpoint fpWorker("sim.worker", EIO);
Failpoint fpStitch("sim.stitch", EIO);

/** The cycle stamp a sink would observe on @p ev. */
Cycle
eventStamp(const TraceEvent &ev)
{
    switch (ev.kind) {
    case TraceEventKind::Cycle:
        return ev.p.cycle.cycle;
    case TraceEventKind::Dispatch:
    case TraceEventKind::Fetch:
        return ev.p.uop.cycle;
    case TraceEventKind::Retire:
        return ev.p.retire.cycle;
    case TraceEventKind::End:
        return ev.p.end;
    }
    return 0; // unreachable
}

/**
 * Rebase @p ev from worker-local to absolute coordinates: cycle fields
 * shift by @p dcycle, valid seq fields by @p dseq. Fields gated by a
 * validity flag are left untouched when invalid — they hold stale
 * working-buffer bytes no observer may read (eventsEquivalent skips
 * them and the codec canonicalizes them away).
 */
void
rebaseEvent(TraceEvent &ev, std::int64_t dcycle, std::uint64_t dseq)
{
    const auto shift = [dcycle](Cycle c) {
        return static_cast<Cycle>(static_cast<std::int64_t>(c) + dcycle);
    };
    switch (ev.kind) {
    case TraceEventKind::Cycle: {
        CycleRecord &r = ev.p.cycle;
        r.cycle = shift(r.cycle);
        if (r.headValid)
            r.headSeq += dseq;
        for (unsigned i = 0; i < r.numCommitted; ++i)
            r.committed[i].seq += dseq;
        break;
    }
    case TraceEventKind::Dispatch:
    case TraceEventKind::Fetch:
        ev.p.uop.cycle = shift(ev.p.uop.cycle);
        ev.p.uop.seq += dseq;
        break;
    case TraceEventKind::Retire:
        ev.p.retire.cycle = shift(ev.p.retire.cycle);
        ev.p.retire.seq += dseq;
        break;
    case TraceEventKind::End:
        ev.p.end = shift(ev.p.end);
        break;
    }
}

/** First index in [begin, end) whose stamp exceeds @p cycle. */
std::size_t
firstStampAfter(const std::vector<TraceEvent> &evs, std::size_t begin,
                std::size_t end, Cycle cycle)
{
    const auto it = std::partition_point(
        evs.begin() + static_cast<std::ptrdiff_t>(begin),
        evs.begin() + static_cast<std::ptrdiff_t>(end),
        [cycle](const TraceEvent &ev) { return eventStamp(ev) <= cycle; });
    return static_cast<std::size_t>(it - evs.begin());
}

/** Field-wise difference end - begin of the interval-attributable
 *  counters (every CoreStats field accumulates per cycle or per retire,
 *  so a leg's contribution is the difference of its boundary
 *  snapshots). */
CoreStats
statsDelta(const CoreStats &end, const CoreStats &begin)
{
    CoreStats d;
    d.cycles = end.cycles - begin.cycles;
    d.committedUops = end.committedUops - begin.committedUops;
    for (std::size_t i = 0; i < d.stateCycles.size(); ++i)
        d.stateCycles[i] = end.stateCycles[i] - begin.stateCycles[i];
    for (std::size_t i = 0; i < d.eventCounts.size(); ++i)
        d.eventCounts[i] = end.eventCounts[i] - begin.eventCounts[i];
    d.uopsWithEvents = end.uopsWithEvents - begin.uopsWithEvents;
    d.uopsWithCombined = end.uopsWithCombined - begin.uopsWithCombined;
    d.branchMispredicts = end.branchMispredicts - begin.branchMispredicts;
    d.pipelineFlushes = end.pipelineFlushes - begin.pipelineFlushes;
    d.moViolations = end.moViolations - begin.moViolations;
    d.drSqStallCycles = end.drSqStallCycles - begin.drSqStallCycles;
    d.samplingInterrupts = end.samplingInterrupts - begin.samplingInterrupts;
    return d;
}

void
statsAccum(CoreStats &into, const CoreStats &d)
{
    into.cycles += d.cycles;
    into.committedUops += d.committedUops;
    for (std::size_t i = 0; i < d.stateCycles.size(); ++i)
        into.stateCycles[i] += d.stateCycles[i];
    for (std::size_t i = 0; i < d.eventCounts.size(); ++i)
        into.eventCounts[i] += d.eventCounts[i];
    into.uopsWithEvents += d.uopsWithEvents;
    into.uopsWithCombined += d.uopsWithCombined;
    into.branchMispredicts += d.branchMispredicts;
    into.pipelineFlushes += d.pipelineFlushes;
    into.moViolations += d.moViolations;
    into.drSqStallCycles += d.drSqStallCycles;
    into.samplingInterrupts += d.samplingInterrupts;
}

bool
statsEqual(const CoreStats &a, const CoreStats &b)
{
    return a.cycles == b.cycles && a.committedUops == b.committedUops &&
           a.stateCycles == b.stateCycles &&
           a.eventCounts == b.eventCounts &&
           a.uopsWithEvents == b.uopsWithEvents &&
           a.uopsWithCombined == b.uopsWithCombined &&
           a.branchMispredicts == b.branchMispredicts &&
           a.pipelineFlushes == b.pipelineFlushes &&
           a.moViolations == b.moViolations &&
           a.drSqStallCycles == b.drSqStallCycles &&
           a.samplingInterrupts == b.samplingInterrupts;
}

SimPerf
perfDelta(const SimPerf &end, const SimPerf &begin)
{
    SimPerf d;
    d.activeCycles = end.activeCycles - begin.activeCycles;
    d.skippedCycles = end.skippedCycles - begin.skippedCycles;
    d.traceEvents = end.traceEvents - begin.traceEvents;
    d.wakeups = end.wakeups - begin.wakeups;
    return d;
}

void
perfAccum(SimPerf &into, const SimPerf &d)
{
    into.activeCycles += d.activeCycles;
    into.skippedCycles += d.skippedCycles;
    into.traceEvents += d.traceEvents;
    into.wakeups += d.wakeups;
}

/**
 * The one sink of every interval core. Events collect in an open chunk
 * and the current leg's route decides what becomes of each full chunk:
 * encoded into frames (a worker's main leg), queued on the hand-off
 * (interval 0), or rebased and delivered (a serial retry). With no
 * route (a worker's warmup leg) the chunk grows without flushing: the
 * verbatim events matchedSuffix compares.
 */
class LegSink final : public TraceSink
{
  public:
    /** Consumes a full chunk; must leave it empty. */
    using Route = std::function<void(TraceChunk &)>;

    void setRoute(Route route) { route_ = std::move(route); }

    void onBatch(const TraceEvent *evs, std::size_t n) override
    {
        while (n > 0) {
            const std::size_t take =
                route_ ? std::min(n, kChunkEvents - open.events.size()) : n;
            open.events.insert(open.events.end(), evs, evs + take);
            for (std::size_t k = 0; k < take; ++k)
                if (evs[k].kind == TraceEventKind::Cycle)
                    ++open.cycleRecords;
            evs += take;
            n -= take;
            if (route_ && open.events.size() == kChunkEvents)
                route_(open);
        }
    }

    void onEnd(Cycle final_cycle) override
    {
        TraceEvent ev;
        ev.kind = TraceEventKind::End;
        ev.p.end = final_cycle;
        onBatch(&ev, 1);
    }

    /** Route the partial chunk (the end of a leg). */
    void flush()
    {
        if (route_ && !open.events.empty())
            route_(open);
    }

    TraceChunk open;

  private:
    Route route_;
};

/** A parked simulation: a live Core plus its sink and the
 *  local-to-absolute identity of its coordinate system. */
struct ParkedRun
{
    std::unique_ptr<LegSink> sink; ///< declared first: outlives the core
    std::unique_ptr<Core> core;
    std::int64_t deltaCycle = 0;  ///< absolute = local + deltaCycle
    std::uint64_t deltaSeq = 0;   ///< absolute = local + deltaSeq
};

/** What interval j's convergence check reads of the accepted stream:
 *  the span and event count of its worker's warmup leg. */
struct WarmupNeed
{
    bool known = false;
    Cycle cycles = 0;
    std::size_t events = 0;
};

struct IntervalResult;

/** Worker/stitcher rendezvous: in-order claims, bounded in-flight,
 *  published warmup needs and interval 0's hand-off. */
struct SimShared
{
    /** Set (under mu, so waiters wake) when the stitcher gives up;
     *  workers poll it once per chunk. */
    std::atomic<bool> aborted{false};
    /** Bytes of frames, warmup legs and tail frames held right now,
     *  and their high-water mark. Declared before results, whose
     *  destructors still account. */
    std::atomic<std::uint64_t> buffered{0};
    std::atomic<std::uint64_t> peakBuffered{0};

    Mutex mu;
    CondVar cv;
    std::vector<std::unique_ptr<IntervalResult>> results
        TEA_GUARDED_BY(mu);
    std::vector<WarmupNeed> needs TEA_GUARDED_BY(mu);
    /** Interval 0's chunks, oldest first, at most kHandoffChunks. */
    std::deque<std::unique_ptr<TraceChunk>> handoff TEA_GUARDED_BY(mu);
    std::uint64_t nextClaim TEA_GUARDED_BY(mu) = 0;
    std::uint64_t taken TEA_GUARDED_BY(mu) = 0;

    bool isAborted() const
    {
        // acquire: pairs with the release store that aborts the run.
        return aborted.load(std::memory_order_acquire);
    }

    /** Add @p delta (may be negative) to the buffered bytes. */
    void account(std::int64_t delta)
    {
        // relaxed: a statistic; no other memory is published through it.
        const std::uint64_t now =
            buffered.fetch_add(static_cast<std::uint64_t>(delta),
                               std::memory_order_relaxed) +
            static_cast<std::uint64_t>(delta);
        // relaxed: as above, a monotone maximum of the same statistic.
        std::uint64_t peak = peakBuffered.load(std::memory_order_relaxed);
        while (now > peak &&
               !peakBuffered.compare_exchange_weak(
                   peak, now, std::memory_order_relaxed,
                   std::memory_order_relaxed)) {
        }
    }

    /** Interval 0's route: queue @p from's events, blocking while the
     *  hand-off is full, and leave @p from with fresh storage. Throws
     *  once the stitcher has aborted. */
    void handOff(TraceChunk &from) TEA_EXCLUDES(mu)
    {
        auto c = std::make_unique<TraceChunk>();
        c->events.reserve(kChunkEvents);
        std::swap(*c, from);
        MutexLock lock(mu);
        while (handoff.size() >= kHandoffChunks && !isAborted())
            cv.wait(mu);
        if (isAborted())
            throw std::runtime_error("time-parallel run aborted");
        handoff.push_back(std::move(c));
        cv.notify_all();
    }

    /** Publish interval @p j's warmup need (first publication wins). */
    void publishNeed(std::uint64_t j, WarmupNeed need) TEA_EXCLUDES(mu)
    {
        MutexLock lock(mu);
        if (!needs[j].known) {
            need.known = true;
            needs[j] = need;
            cv.notify_all();
        }
    }
};

/** What one worker hands the stitcher for one interval. */
struct IntervalResult
{
    explicit IntervalResult(SimShared &shared) : sh(&shared) {}
    ~IntervalResult() { releaseBuffers(); }
    IntervalResult(const IntervalResult &) = delete;
    IntervalResult &operator=(const IntervalResult &) = delete;

    SimShared *sh;
    std::uint64_t index = 0;
    bool failed = false; ///< worker threw; error holds the message
    std::string error;

    ParkedRun run; ///< core parked at the interval end

    /** The warmup leg verbatim, local coordinates (intervals >= 1). */
    std::vector<TraceEvent> warmup;
    /** The main leg as codec frames, local coordinates (intervals
     *  >= 1; interval 0 streams through the hand-off instead). */
    std::vector<std::uint8_t> frames;
    /** Bytes of warmup + frames currently counted in sh->buffered. */
    std::uint64_t accounted = 0;

    Cycle warmupEndCycle = 0;    ///< local stamp of the last warmup cycle
    Cycle endCycle = 0;          ///< local stamp of the last simulated cycle
    bool halted = false;
    /** Core::stateFingerprint at the warmup/main boundary: compared
     *  against the predecessor's end fingerprint by the stitcher (the
     *  state leg of convergence acceptance). */
    std::uint64_t warmupFingerprint = 0;
    /** Core::stateFingerprint at the interval end: what the *next*
     *  interval's warmup fingerprint must reproduce. */
    std::uint64_t endFingerprint = 0;

    /** Per-structure decomposition (TEA_SIM_DEBUG only). */
    std::vector<std::pair<const char *, std::uint64_t>> warmupParts;
    std::vector<std::pair<const char *, std::uint64_t>> endParts;
    CoreStats warmupStats;       ///< snapshot at the warmup/main boundary
    SimPerf warmupPerf;
    CoreStats endStats;
    SimPerf endPerf;

    /** Bring sh->buffered in line with the buffers' capacity now. */
    void track()
    {
        const std::uint64_t now =
            frames.capacity() + warmup.capacity() * sizeof(TraceEvent);
        sh->account(static_cast<std::int64_t>(now) -
                    static_cast<std::int64_t>(accounted));
        accounted = now;
    }

    /** Free the warmup leg and the frames. */
    void releaseBuffers()
    {
        std::vector<TraceEvent>().swap(warmup);
        std::vector<std::uint8_t>().swap(frames);
        track();
    }
};

/** Inputs shared by every worker (all read-only during the run). */
struct SimPlan
{
    const CoreConfig *cfg = nullptr;
    const Program *prog = nullptr;
    const ArchState *initial = nullptr;
    /** The checkpoint pre-pass, still running while interval 0 (which
     *  needs no checkpoint) simulates. Workers get() their own copy. */
    std::shared_future<CheckpointPlan> plan;
    std::uint64_t totalUops = 0; ///< functional length of the run
    std::uint64_t intervals = 0; ///< K
    std::uint64_t intervalUops = 0;
    std::uint64_t warmupUops = 0;
    std::uint64_t maxInFlight = 0;
};

/**
 * Simulate interval @p j in local coordinates: build a core at the
 * interval's checkpoint (worker 0: the true initial state), run the
 * warmup leg keeping its events verbatim, snapshot, then run the main
 * leg to the interval's committed-uop boundary (the final interval: to
 * halt), encoding it into frames. Interval 0 has no warmup leg and
 * streams its events through the hand-off instead. @p fault injects a
 * sim.worker failure after the warmup leg.
 */
std::unique_ptr<IntervalResult>
simulateInterval(const SimPlan &sp, SimShared &sh, std::uint64_t j,
                 bool fault)
{
    auto res = std::make_unique<IntervalResult>(sh);
    res->index = j;
    const bool last = (j + 1 == sp.intervals);
    res->run.sink = std::make_unique<LegSink>();
    LegSink &sink = *res->run.sink;

    if (j == 0) {
        // Worker 0 needs no warmup: it starts from the true initial
        // state, so its stream is the serial stream by construction
        // and can go to the sinks while the other intervals simulate.
        res->run.core = std::make_unique<Core>(*sp.cfg, *sp.prog,
                                               ArchState(*sp.initial));
        res->run.core->addSink(&sink);
        if (fault)
            fpWorker.raise();
        sink.open.events.reserve(kChunkEvents);
        sink.setRoute([&sh](TraceChunk &c) { sh.handOff(c); });
        res->run.core->runUntilCommitted(
            last ? ~std::uint64_t(0) : sp.intervalUops, kLegMaxCycles);
        sink.flush();
        // warmupStats/~Perf stay zero-initialized: the whole leg is
        // accepted stream.
    } else {
        const std::shared_future<CheckpointPlan> planFuture = sp.plan;
        const CheckpointPlan &plan = planFuture.get();
        tea_assert(plan.halted && plan.totalUops == sp.totalUops &&
                       plan.checkpoints.size() >= sp.intervals - 1,
                   "pre-pass of %llu uops with %zu checkpoints for %llu "
                   "intervals over %llu uops",
                   static_cast<unsigned long long>(plan.totalUops),
                   plan.checkpoints.size(),
                   static_cast<unsigned long long>(sp.intervals),
                   static_cast<unsigned long long>(sp.totalUops));
        const ArchCheckpoint &ck = plan.checkpoints[j - 1];
        tea_assert(ck.uops == j * sp.intervalUops - sp.warmupUops,
                   "checkpoint %llu at uop %llu, expected %llu",
                   static_cast<unsigned long long>(j),
                   static_cast<unsigned long long>(ck.uops),
                   static_cast<unsigned long long>(j * sp.intervalUops -
                                                   sp.warmupUops));
        res->run.deltaSeq = ck.uops;
        ArchState st = materializeState(*sp.initial, plan, ck);
        res->run.core = std::make_unique<Core>(*sp.cfg, *sp.prog,
                                               std::move(st), ck.pc,
                                               ck.uops,
                                               ck.predictor.get());
        // Functional cache warming: replay the checkpoint's recorded
        // access stream so tags/LRU/TLBs start near serial state and
        // the timing warmup leg only has to converge the residue.
        res->run.core->warmFromCheckpoint(ck);
        res->run.core->addSink(&sink);

        // Warmup leg: converge the cold microarchitectural state. Its
        // events are kept verbatim for the convergence check but never
        // delivered downstream (the suppressed-emission contract).
        res->run.core->runUntilCommitted(sp.warmupUops, kLegMaxCycles);
        res->warmupEndCycle = res->run.core->cycle() - 1;
        res->warmupStats = res->run.core->stats();
        res->warmupPerf = res->run.core->perf();
        res->warmupFingerprint = res->run.core->stateFingerprint();
        if (std::getenv("TEA_SIM_DEBUG"))
            res->warmupParts = res->run.core->stateFingerprintParts();

        // Split at the boundary: events stamped past the last warmup
        // cycle open the main leg.
        std::vector<TraceEvent> &evs = sink.open.events;
        const std::size_t mainBegin =
            firstStampAfter(evs, 0, evs.size(), res->warmupEndCycle);
        res->warmup.swap(evs);
        evs.assign(res->warmup.begin() +
                       static_cast<std::ptrdiff_t>(mainBegin),
                   res->warmup.end());
        evs.reserve(kChunkEvents);
        res->warmup.resize(mainBegin);
        res->warmup.shrink_to_fit(); // held until the stitcher's check
        sink.open.cycleRecords = static_cast<std::uint64_t>(
            std::count_if(evs.begin(), evs.end(), [](const TraceEvent &e) {
                return e.kind == TraceEventKind::Cycle;
            }));
        res->track();
        sh.publishNeed(j, WarmupNeed{true, res->warmupEndCycle + 1,
                                     mainBegin});
        if (fault)
            fpWorker.raise();

        // Main leg: local target = interval end minus checkpoint base.
        IntervalResult &r = *res;
        sink.setRoute([&r, &sh](TraceChunk &c) {
            if (sh.isAborted())
                throw std::runtime_error("time-parallel run aborted");
            encodeChunk(c, r.frames);
            c.events.clear();
            c.cycleRecords = 0;
            r.track();
        });
        const std::uint64_t target =
            last ? ~std::uint64_t(0)
                 : (j + 1) * sp.intervalUops - ck.uops;
        res->run.core->runUntilCommitted(target, kLegMaxCycles);
        sink.flush();
    }
    // The route captured this frame's state; the stitcher re-routes
    // before it ever runs the parked core again.
    sink.setRoute(nullptr);

    res->endCycle = res->run.core->cycle() - 1;
    res->halted = res->run.core->halted();
    res->endStats = res->run.core->stats();
    res->endPerf = res->run.core->perf();
    res->endFingerprint = res->run.core->stateFingerprint();
    if (std::getenv("TEA_SIM_DEBUG"))
        res->endParts = res->run.core->stateFingerprintParts();
    return res;
}

void
workerLoop(const SimPlan &sp, SimShared &sh)
{
    for (;;) {
        std::uint64_t j;
        bool fault;
        {
            MutexLock lock(sh.mu);
            while (!sh.isAborted() && sh.nextClaim < sp.intervals &&
                   sh.nextClaim >= sh.taken + sp.maxInFlight)
                sh.cv.wait(sh.mu);
            if (sh.isAborted() || sh.nextClaim >= sp.intervals)
                return;
            j = sh.nextClaim++;
            // Counted at the claim, in interval order (see fpWorker).
            fault = TEA_FAILPOINT(fpWorker);
        }
        std::unique_ptr<IntervalResult> res;
        try {
            res = simulateInterval(sp, sh, j, fault);
        } catch (const std::exception &e) {
            res = std::make_unique<IntervalResult>(sh);
            res->index = j;
            res->failed = true;
            res->error = e.what();
        }
        // A failed worker still publishes (an empty) need, so the
        // stitcher never waits on it.
        sh.publishNeed(j, WarmupNeed{});
        {
            MutexLock lock(sh.mu);
            sh.results[j] = std::move(res);
            sh.cv.notify_all();
        }
    }
}

/** One accepted chunk kept for the next convergence check. */
struct TailFrame
{
    std::vector<std::uint8_t> bytes; ///< one codec frame
    std::size_t events = 0;
    Cycle firstStamp = 0;     ///< absolute stamp of its first event
    std::int64_t dcycle = 0;  ///< rebase of the decoded events
    std::uint64_t dseq = 0;
};

/** Everything the stitcher carries between intervals. */
struct StitchState
{
    SimShared *sh = nullptr;
    std::vector<TraceSink *> sinks;
    ParkedRun parked;           ///< previous interval's core, kept alive
    Cycle absLast = 0;          ///< absolute stamp of the accepted end
    /**
     * Accepted suffix as codec frames, oldest first: trimmed to what
     * the next interval's convergence check reads.
     */
    std::deque<TailFrame> tail;
    std::size_t tailEvents = 0; ///< events across the tail frames
    Cycle tailEnd = 0;          ///< stamp of the newest tail event
    std::uint64_t current = 0;  ///< interval being delivered
    std::uint64_t intervals = 0;
    WarmupNeed need;            ///< interval current + 1's warmup need
    ChunkDecoder decoder;
    TraceChunk decoded;         ///< the one chunk frames decode into
    CoreStats stats;
    SimPerf perf;
    std::uint64_t warmupCycles = 0;
    std::uint64_t retries = 0;
    std::uint64_t parallelCycles = 0; ///< cycles from accepted workers
    bool halted = false;
    /** Latent-state fingerprint of the parked core at the accepted
     *  boundary — what the next worker's warmup must reproduce. */
    std::uint64_t parkedFingerprint = 0;
    /** Its decomposition (TEA_SIM_DEBUG only). */
    std::vector<std::pair<const char *, std::uint64_t>> parkedParts;
};

/**
 * Drop frames off the front of the tail while the rest still covers
 * the successor's need: at least its warmup span in cycles and its
 * warmup event count, the most matchedSuffix can compare. Until the
 * successor's warmup leg has published its need, nothing is dropped.
 */
void
trimTail(StitchState &st)
{
    if (!st.need.known) {
        const std::uint64_t next = st.current + 1;
        if (next >= st.intervals) {
            st.need = WarmupNeed{true, 0, 0}; // nothing checks the last tail
        } else {
            MutexLock lock(st.sh->mu);
            st.need = st.sh->needs[next];
        }
        if (!st.need.known)
            return;
    }
    while (st.tail.size() > 1) {
        const std::size_t rest = st.tailEvents - st.tail.front().events;
        if (rest < st.need.events ||
            st.tail[1].firstStamp + st.need.cycles > st.tailEnd + 1)
            break;
        st.tailEvents = rest;
        st.sh->account(
            -static_cast<std::int64_t>(st.tail.front().bytes.capacity()));
        st.tail.pop_front();
    }
}

/**
 * Accept chunk @p c as the next piece of the serial stream: rebase it
 * in place to absolute coordinates, deliver it to the sinks, and keep
 * it in the tail as a frame — @p frame when it came from one (stored
 * with the rebase), else encoded here.
 */
void
deliverChunk(StitchState &st, TraceChunk &c, std::int64_t dcycle,
             std::uint64_t dseq, const std::uint8_t *frame = nullptr,
             std::size_t frameBytes = 0)
{
    std::vector<TraceEvent> &evs = c.events;
    if (evs.empty())
        return;
    if (dcycle != 0 || dseq != 0)
        for (TraceEvent &ev : evs)
            rebaseEvent(ev, dcycle, dseq);
    replayEvents(evs.data(), evs.size(), st.sinks);

    TailFrame f;
    f.events = evs.size();
    f.firstStamp = eventStamp(evs.front());
    if (frame) {
        f.bytes.assign(frame, frame + frameBytes);
        f.dcycle = dcycle;
        f.dseq = dseq;
    } else {
        encodeChunk(c, f.bytes);
    }
    st.sh->account(static_cast<std::int64_t>(f.bytes.capacity()));
    st.tailEnd = eventStamp(evs.back());
    st.tailEvents += f.events;
    st.tail.push_back(std::move(f));
    trimTail(st);
}

/** Decode tail frame @p f into st.decoded, in absolute coordinates. */
void
decodeTailFrame(StitchState &st, const TailFrame &f)
{
    std::size_t used = 0;
    std::string why;
    if (!st.decoder.decode(f.bytes.data(), f.bytes.size(), st.decoded, &used,
                           &why))
        throw std::runtime_error("time-parallel tail frame: " + why);
    if (f.dcycle != 0 || f.dseq != 0)
        for (TraceEvent &ev : st.decoded.events)
            rebaseEvent(ev, f.dcycle, f.dseq);
}

/**
 * How many cycles of @p res's warmup stream, walking backwards from
 * the interval boundary, reproduce the accepted serial stream? The
 * boundary is end-aligned by construction (committed-uop counts), so
 * the two streams are paired from the boundary backwards and compared
 * after rebasing. A worker is converged when this matched suffix is
 * long enough (see convergedWindow); the early part of the warmup leg
 * is *expected* to diverge — that is the cold start the warmup
 * exists to absorb. A matching suffix alone cannot prove latent
 * long-memory state (cache LRU depths the boundary window never
 * exercises), so acceptance additionally requires the worker's state
 * fingerprint to equal the predecessor's (Core::stateFingerprint);
 * the TEA_SIM_PARALLEL=verify oracle remains the end-to-end guarantee
 * for whatever neither leg covers.
 *
 * @return pair of (matched suffix length in cycles, overlap length in
 *         cycles); the overlap is the window both sides cover.
 */
std::pair<Cycle, Cycle>
matchedSuffix(StitchState &st, const IntervalResult &res)
{
    const std::vector<TraceEvent> &wev = res.warmup;

    const Cycle serialSpan =
        st.tail.empty() ? 0 : st.absLast - st.tail.front().firstStamp + 1;
    const Cycle warmupSpan = res.warmupEndCycle + 1;
    const Cycle window = std::min(serialSpan, warmupSpan);
    if (window == 0)
        return {0, 0};

    const std::int64_t dcycle = static_cast<std::int64_t>(st.absLast) -
                                static_cast<std::int64_t>(res.warmupEndCycle);
    const std::size_t maxPairs = std::min(st.tailEvents, wev.size());
    std::size_t i = 0;
    Cycle earliest = 0; // stamp of the earliest matched serial event
    // Walk the tail backwards, decoding one frame at a time.
    auto frame = st.tail.rbegin();
    std::size_t k = 0;
    while (i < maxPairs) {
        if (k == 0) {
            decodeTailFrame(st, *frame++);
            k = st.decoded.events.size();
        }
        const TraceEvent &se = st.decoded.events[--k];
        TraceEvent ev = wev[wev.size() - 1 - i];
        rebaseEvent(ev, dcycle, res.run.deltaSeq);
        if (!eventsEquivalent(se, ev))
            break;
        earliest = eventStamp(se);
        ++i;
    }
    if (i == 0)
        return {0, window};
    if (i == maxPairs)
        return {window, window}; // the whole overlap matched
    return {st.absLast - earliest, window};
}

/**
 * The matched-suffix length (in cycles) required to accept a worker
 * interval, given the overlap both streams cover. One eighth of the
 * overlap, floored at kMinMatchCycles: the suffix leg only has to
 * prove that pipeline-visible state converged and stayed locked —
 * thousands of cycles against a pipeline whose deepest structure
 * holds a few hundred — because the latent long-memory state (cache
 * LRU depths, TLBs, store sets) is covered by the mandatory
 * fingerprint leg of the acceptance, which no output window of any
 * length can prove.
 */
Cycle
convergedWindow(Cycle overlap)
{
    return std::min(overlap, std::max(kMinMatchCycles, overlap / 8));
}

/** The sim.stitch seam, passed once per drained chunk. */
void
stitchSeam()
{
    if (TEA_FAILPOINT(fpStitch))
        fpStitch.raise();
}

/**
 * Bookkeeping of an accepted interval whose events are delivered:
 * advance the accepted end, add the main leg's counters, and park the
 * interval's core as the next retry's predecessor.
 */
void
finishAccepted(StitchState &st, IntervalResult &res)
{
    st.absLast = static_cast<Cycle>(static_cast<std::int64_t>(res.endCycle) +
                                    res.run.deltaCycle);
    statsAccum(st.stats, statsDelta(res.endStats, res.warmupStats));
    perfAccum(st.perf, perfDelta(res.endPerf, res.warmupPerf));
    st.parallelCycles += res.endCycle - res.warmupEndCycle;
    st.halted = res.halted;
    st.parkedFingerprint = res.endFingerprint;
    st.parkedParts = std::move(res.endParts);
    res.releaseBuffers();
    st.parked = std::move(res.run);
}

/**
 * Deliver interval 0 from its hand-off while it still simulates, until
 * its worker posts its result (returned; the caller checks failure).
 */
std::unique_ptr<IntervalResult>
streamFirstInterval(StitchState &st)
{
    SimShared &sh = *st.sh;
    for (;;) {
        std::unique_ptr<TraceChunk> c;
        std::unique_ptr<IntervalResult> res;
        {
            MutexLock lock(sh.mu);
            while (sh.handoff.empty() && !sh.results[0])
                sh.cv.wait(sh.mu);
            if (sh.results[0] &&
                (sh.results[0]->failed || sh.handoff.empty())) {
                res = std::move(sh.results[0]);
                sh.taken = 1;
            } else {
                c = std::move(sh.handoff.front());
                sh.handoff.pop_front();
            }
            sh.cv.notify_all();
        }
        if (res)
            return res;
        stitchSeam();
        deliverChunk(st, *c, 0, 0);
    }
}

/** Accept interval @p res: decode, rebase and deliver its frames. */
void
acceptWorker(StitchState &st, IntervalResult &res)
{
    res.run.deltaCycle = static_cast<std::int64_t>(st.absLast) -
                         static_cast<std::int64_t>(res.warmupEndCycle);
    const std::vector<std::uint8_t> &frames = res.frames;
    std::size_t off = 0;
    std::string why;
    while (off < frames.size()) {
        std::size_t used = 0;
        if (!st.decoder.decode(frames.data() + off, frames.size() - off,
                               st.decoded, &used, &why))
            throw std::runtime_error("time-parallel frame of interval " +
                                     std::to_string(res.index) + ": " + why);
        stitchSeam();
        deliverChunk(st, st.decoded, res.run.deltaCycle, res.run.deltaSeq,
                     frames.data() + off, used);
        off += used;
    }
    finishAccepted(st, res);
}

/**
 * Redo interval @p j serially on the parked predecessor core — an
 * exact continuation of the accepted stream by construction — and
 * deliver straight from it.
 */
void
retrySerially(const SimPlan &sp, StitchState &st, std::uint64_t j)
{
    ++st.retries;
    ParkedRun &run = st.parked;
    tea_assert(run.core != nullptr, "no parked core for serial retry");

    const bool last = (j + 1 == sp.intervals);
    const CoreStats statsBefore = run.core->stats();
    const SimPerf perfBefore = run.core->perf();

    run.sink->setRoute([&st, &run](TraceChunk &c) {
        deliverChunk(st, c, run.deltaCycle, run.deltaSeq);
        c.events.clear();
        c.cycleRecords = 0;
    });
    // Local target: the interval's absolute uop boundary minus this
    // core's seq base (its local seq count is its committed count).
    const std::uint64_t target =
        last ? ~std::uint64_t(0)
             : (j + 1) * sp.intervalUops - run.deltaSeq;
    run.core->runUntilCommitted(target, kLegMaxCycles);
    run.sink->flush();
    run.sink->setRoute(nullptr);

    st.absLast = static_cast<Cycle>(
        static_cast<std::int64_t>(run.core->cycle() - 1) + run.deltaCycle);
    statsAccum(st.stats, statsDelta(run.core->stats(), statsBefore));
    perfAccum(st.perf, perfDelta(run.core->perf(), perfBefore));
    st.halted = run.core->halted();
    st.parkedFingerprint = run.core->stateFingerprint();
    if (std::getenv("TEA_SIM_DEBUG"))
        st.parkedParts = run.core->stateFingerprintParts();
}

/**
 * Structural screen before the convergence check: the worker must have
 * produced a stream that cleanly spans its interval.
 */
bool
structurallySound(const SimPlan &sp, const IntervalResult &res)
{
    if (res.failed)
        return false;
    const bool last = (res.index + 1 == sp.intervals);
    if (last) {
        // The final interval must run to the program's halt.
        if (!res.halted)
            return false;
    } else {
        // A non-final interval must reach its uop boundary unhalted.
        if (res.halted)
            return false;
        const std::uint64_t target =
            (res.index + 1) * sp.intervalUops - res.run.deltaSeq;
        if (res.endStats.committedUops < target)
            return false;
    }
    // The warmup leg must not have halted (committed count below the
    // warmup target means the budget ran out mid-warmup).
    if (res.index > 0 && res.warmupStats.committedUops < sp.warmupUops)
        return false;
    return true;
}

/**
 * Serial reference path shared by the fallback and the oracle. Takes
 * the initial state by value so a caller's last use moves the heap
 * image into the core instead of copying it.
 */
void
runSerialReference(const CoreConfig &cfg, const Program &prog,
                   ArchState initial,
                   const std::vector<TraceSink *> &sinks,
                   CoreStats *stats_out, SimPerf *perf_out)
{
    Core core(cfg, prog, std::move(initial));
    for (TraceSink *sink : sinks)
        core.addSink(sink);
    core.run();
    *stats_out = core.stats();
    *perf_out = core.perf();
}

/** Functional instruction count to halt; 0 when the budget ran out. */
std::uint64_t
countUopsToHalt(const Program &prog, const ArchState &initial,
                std::uint64_t max_uops)
{
    ArchState st = initial;
    InstIndex pc = prog.entry();
    std::uint64_t count = 0;
    while (count < max_uops) {
        ExecResult er = execute(prog, pc, st);
        ++count;
        if (er.halted)
            return count;
        pc = er.nextPc;
    }
    return 0;
}

/**
 * Stitch intervals 0..K-1 into @p st's sinks: interval 0 streams,
 * each later one is accepted or redone serially.
 */
void
stitchIntervals(const SimPlan &sp, SimShared &sh, StitchState &st)
{
    const std::uint64_t K = sp.intervals;
    for (std::uint64_t j = 0; j < K; ++j) {
        st.current = j;
        st.need = WarmupNeed{};
        if (j == 0) {
            // Worker 0 is the serial prefix: always accepted, with a
            // zero delta on both axes. Its leg includes cycle 0, which
            // endCycle - warmupEndCycle undercounts by one.
            std::unique_ptr<IntervalResult> res = streamFirstInterval(st);
            if (res->failed)
                throw std::runtime_error("time-parallel worker 0: " +
                                         res->error);
            st.parallelCycles += 1;
            finishAccepted(st, *res);
            continue;
        }
        std::unique_ptr<IntervalResult> res;
        {
            MutexLock lock(sh.mu);
            while (!sh.results[j])
                sh.cv.wait(sh.mu);
            res = std::move(sh.results[j]);
            sh.taken = j + 1;
            sh.cv.notify_all();
        }
        if (!res->failed)
            st.warmupCycles += res->warmupEndCycle + 1;

        const bool sound = structurallySound(sp, *res);
        Cycle matched = 0;
        Cycle overlap = 0;
        if (sound)
            std::tie(matched, overlap) = matchedSuffix(st, *res);
        const Cycle required = convergedWindow(overlap);
        // Two-leg acceptance: the output suffix near the boundary
        // must match (pipeline-visible state), and the latent
        // memory/ordering state must hash identically to the
        // predecessor's at the same committed-uop boundary (the
        // state no output window can prove).
        const bool stateMatch =
            sound && res->warmupFingerprint == st.parkedFingerprint;
        const bool converged = stateMatch && matched >= required;
        if (std::getenv("TEA_SIM_DEBUG"))
            std::fprintf(stderr,
                         "tea-sim: interval %llu %s (sound=%d "
                         "state=%d matched=%llu/%llu required=%llu "
                         "warmupEnd=%llu end=%llu absLast=%llu)\n",
                         static_cast<unsigned long long>(j),
                         converged ? "accepted" : "retried", sound,
                         stateMatch,
                         static_cast<unsigned long long>(matched),
                         static_cast<unsigned long long>(overlap),
                         static_cast<unsigned long long>(required),
                         static_cast<unsigned long long>(
                             res->warmupEndCycle),
                         static_cast<unsigned long long>(res->endCycle),
                         static_cast<unsigned long long>(st.absLast));
        if (std::getenv("TEA_SIM_DEBUG") && sound && !stateMatch &&
            res->warmupParts.size() == st.parkedParts.size()) {
            for (std::size_t p = 0; p < res->warmupParts.size(); ++p)
                if (res->warmupParts[p].second != st.parkedParts[p].second)
                    std::fprintf(stderr, "tea-sim:   state diff: %s\n",
                                 res->warmupParts[p].first);
        }
        if (converged) {
            acceptWorker(st, *res);
        } else {
            res.reset(); // free its buffers before the retry runs
            retrySerially(sp, st, j);
        }
    }
}

/**
 * The time-parallel path proper. Returns false when the plan turned
 * out unusable (pre-pass did not halt / too short to split) and the
 * caller should run serially instead; on success fills everything.
 */
bool
runTimeParallel(const CoreConfig &cfg, const Program &prog,
                const ArchState &initial, const TimeParallelOptions &opts,
                unsigned threads, const std::vector<TraceSink *> &sinks,
                CoreStats *stats_out, SimPerf *perf_out,
                TimeParallelStats *tp)
{
    // Resolve the interval geometry from the run's functional length
    // (a plain execute walk, a few percent of the checkpoint pre-pass):
    // one interval per worker, floored so the warmup prefix stays a
    // fraction of the interval.
    constexpr std::uint64_t kPrePassBudget = 1ULL << 33;
    const std::uint64_t total = countUopsToHalt(prog, initial, kPrePassBudget);
    if (total == 0)
        return false; // does not halt in budget; serial owns it
    // Clamped to the run so 2 * warmup cannot wrap; a warmup that long
    // leaves a single interval, which stays serial below.
    const std::uint64_t warmup =
        std::clamp<std::uint64_t>(opts.warmupUops, 1, total);
    const std::uint64_t interval = std::max<std::uint64_t>(
        2 * warmup, (total + threads - 1) / threads);
    const std::uint64_t K = (total + interval - 1) / interval;
    if (K < 2)
        return false;

    SimPlan sp;
    sp.cfg = &cfg;
    sp.prog = &prog;
    sp.initial = &initial;
    sp.plan = std::async(std::launch::async, [&, interval, warmup] {
                  return buildCheckpoints(prog, initial, interval, warmup,
                                          kPrePassBudget, &cfg);
              }).share();
    sp.totalUops = total;
    sp.intervals = K;
    sp.intervalUops = interval;
    sp.warmupUops = warmup;
    const unsigned workers =
        static_cast<unsigned>(std::min<std::uint64_t>(threads, K));
    sp.maxInFlight = workers + 1;

    SimShared sh;
    {
        MutexLock lock(sh.mu);
        sh.results.resize(K);
        sh.needs.resize(K);
    }
    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned t = 0; t < workers; ++t)
        // workerLoop catches per-interval exceptions itself and turns
        // them into failed IntervalResults (the stitcher owns the
        // diagnostic); what remains in the body is lock/wait/move,
        // which is noexcept in practice.
        // tea_lint: allow(unguarded-worker)
        pool.emplace_back([&sp, &sh] { workerLoop(sp, sh); });

    // Abort wakes every worker (one blocked on a full hand-off throws
    // out of its leg; the others stop at their next chunk or claim),
    // then joins them all.
    const auto stopWorkers = [&sh, &pool] {
        {
            MutexLock lock(sh.mu);
            // release: workers polling without the lock see it.
            sh.aborted.store(true, std::memory_order_release);
            sh.cv.notify_all();
        }
        for (std::thread &t : pool)
            t.join();
    };
    StitchState st;
    st.sh = &sh;
    st.sinks = sinks;
    st.intervals = K;
    try {
        stitchIntervals(sp, sh, st);
    } catch (...) {
        stopWorkers();
        throw;
    }
    stopWorkers();

    tea_assert(st.halted, "time-parallel simulation did not halt");
    tea_assert(st.stats.cycles == st.absLast + 1,
               "stitched cycle count %llu != final cycle %llu",
               static_cast<unsigned long long>(st.stats.cycles),
               static_cast<unsigned long long>(st.absLast + 1));

    *stats_out = st.stats;
    *perf_out = st.perf;
    tp->usedParallel = true;
    tp->intervals = K;
    tp->warmupCycles = st.warmupCycles;
    tp->convergenceRetries = st.retries;
    tp->parallelEfficiency =
        st.stats.cycles
            ? static_cast<double>(st.parallelCycles) /
                  static_cast<double>(st.stats.cycles)
            : 0.0;
    // relaxed: every worker is joined, which orders their updates.
    tp->peakBufferedBytes = sh.peakBuffered.load(std::memory_order_relaxed);
    return true;
}

/** Hash sink: fingerprints the stream through the canonical codec. */
class FingerprintSink
{
  public:
    FingerprintSink()
        : sink_(4096, [this](TraceChunkPtr chunk) {
              frame_.clear();
              encodeChunk(*chunk, frame_);
              hash_.addBytes(frame_.data(), frame_.size());
              ++chunks_;
          })
    {
    }

    ChunkingSink *sink() { return &sink_; }

    std::uint64_t finishAndValue()
    {
        sink_.finish();
        return hash_.value();
    }

    std::uint64_t events() const { return sink_.eventsCaptured(); }
    std::uint64_t chunks() const { return chunks_; }

  private:
    ChunkingSink sink_;
    std::vector<std::uint8_t> frame_;
    Fnv1a hash_;
    std::uint64_t chunks_ = 0;
};

} // namespace

TimeParallelOptions
TimeParallelOptions::fromEnv()
{
    TimeParallelOptions o;
    o.threads = envUnsigned("TEA_SIM_THREADS", o.threads);
    o.warmupUops = envUnsigned("TEA_SIM_WARMUP", o.warmupUops);
    if (const char *mode = std::getenv("TEA_SIM_PARALLEL"); mode && *mode) {
        if (std::strcmp(mode, "verify") != 0)
            tea_fatal("TEA_SIM_PARALLEL accepts only 'verify', got '%s' "
                      "(TEA_SIM_THREADS=N turns time-parallel simulation "
                      "on, 1 keeps it off)",
                      mode);
        o.verify = true;
    }
    return o;
}

TimeParallelStats
simulateTimeParallel(const CoreConfig &cfg, const Program &prog,
                     ArchState initial,
                     const TimeParallelOptions &opts,
                     const std::vector<TraceSink *> &sinks,
                     CoreStats *stats_out, SimPerf *perf_out)
{
    TimeParallelStats tp;
    unsigned threads = opts.threads;
    if (threads == 0) {
        threads = std::thread::hardware_concurrency();
        if (threads == 0)
            threads = 1;
    }

    // Sampling interrupts fire on absolute cycles; a restarted interval
    // cannot know its absolute phase, so such configs stay serial.
    const bool viable = opts.wantsParallel() && threads > 1 &&
                        cfg.samplingInterruptPeriod == 0;
    if (!viable) {
        runSerialReference(cfg, prog, std::move(initial), sinks, stats_out,
                           perf_out);
        return tp;
    }

    if (!opts.verify) {
        if (!runTimeParallel(cfg, prog, initial, opts, threads, sinks,
                             stats_out, perf_out, &tp))
            runSerialReference(cfg, prog, std::move(initial), sinks,
                               stats_out, perf_out);
        return tp;
    }

    // Differential oracle: tee the stitched stream through the codec
    // fingerprint, then run the serial reference and compare.
    FingerprintSink fpPar;
    std::vector<TraceSink *> teed = sinks;
    teed.push_back(fpPar.sink());
    if (!runTimeParallel(cfg, prog, initial, opts, threads, teed, stats_out,
                         perf_out, &tp)) {
        runSerialReference(cfg, prog, std::move(initial), sinks, stats_out,
                           perf_out);
        return tp;
    }
    const std::uint64_t parHash = fpPar.finishAndValue();

    FingerprintSink fpSer;
    CoreStats serStats;
    SimPerf serPerf;
    std::vector<TraceSink *> serSinks{fpSer.sink()};
    runSerialReference(cfg, prog, std::move(initial), serSinks, &serStats,
                       &serPerf);
    const std::uint64_t serHash = fpSer.finishAndValue();

    if (parHash != serHash || fpPar.events() != fpSer.events() ||
        fpPar.chunks() != fpSer.chunks() ||
        !statsEqual(*stats_out, serStats))
        tea_fatal("TEA_SIM_PARALLEL=verify: stitched stream diverges from "
                  "serial reference (events %llu vs %llu, hash %016llx vs "
                  "%016llx, stats %s)",
                  static_cast<unsigned long long>(fpPar.events()),
                  static_cast<unsigned long long>(fpSer.events()),
                  static_cast<unsigned long long>(parHash),
                  static_cast<unsigned long long>(serHash),
                  statsEqual(*stats_out, serStats) ? "equal" : "DIFFER");
    return tp;
}

} // namespace tea
