#include "analysis/parallel_runner.hh"

#include <algorithm>
#include <atomic>
#include <chrono>
#include <cstdio>
#include <thread>

#include "analysis/audit.hh"
#include "analysis/cache_janitor.hh"
#include "analysis/trace_cache.hh"
#include "common/chunk_queue.hh"
#include "common/env.hh"
#include "common/failpoint.hh"
#include "common/file_lock.hh"
#include "common/logging.hh"
#include "core/trace_io.hh"

namespace tea {

namespace {

using Clock = std::chrono::steady_clock;

// Fault-injection seams (common/failpoint). These raise FailpointError
// — an ordinary exception — so they exercise the containment paths:
// a worker-side fault is recorded in ReplayWorkerStats::error and fails
// only that experiment; an experiment-side fault is caught per
// experiment by runBenchmarkSuite.
Failpoint fpQueuePush("runner.queue_push", EIO);
Failpoint fpQueuePop("runner.queue_pop", EIO);
Failpoint fpWorkerBody("runner.worker_body", EIO);
Failpoint fpExperiment("runner.experiment", EIO);

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

} // namespace

RunnerOptions
RunnerOptions::fromEnv()
{
    RunnerOptions opts;
    const unsigned hw = std::max(1u, std::thread::hardware_concurrency());
    // Default: one replay worker per hardware thread (results are
    // identical at any thread count, so this is purely a speed knob).
    const auto threads = envUnsigned<unsigned>("TEA_THREADS", hw);
    opts.threads = threads == 0 ? hw : threads;
    opts.audit = envUnsigned<unsigned>("TEA_AUDIT", 0);
    opts.cache = TraceCacheOptions::fromEnv();
    opts.janitor = JanitorConfig::fromEnv();
    opts.cacheLockTimeoutMs = envUnsigned<unsigned>(
        "TEA_CACHE_LOCK_TIMEOUT_MS", opts.cacheLockTimeoutMs);
    opts.sim = TimeParallelOptions::fromEnv();
    return opts;
}

ReplayStats
replayChunksThroughPool(const std::vector<SinkGroup> &groups,
                        const RunnerOptions &opts,
                        const std::function<void(const ChunkPush &)> &pump)
{
    ReplayStats stats;
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(opts.threads, groups.size())));
    stats.threads = workers;
    stats.workers.resize(workers);

    BroadcastQueue<TraceChunkPtr> queue(std::max<std::size_t>(
                                            1, opts.queueChunks),
                                        workers);

    std::vector<std::thread> pool;
    pool.reserve(workers);
    for (unsigned w = 0; w < workers; ++w) {
        pool.emplace_back([&, w] {
            // Round-robin share of the observer groups; sinks of one
            // group stay together so each observer sees the trace
            // in order on a single thread.
            std::vector<TraceSink *> sinks;
            unsigned my_groups = 0;
            for (std::size_t g = w; g < groups.size();
                 g += workers) {
                sinks.insert(sinks.end(), groups[g].sinks.begin(),
                             groups[g].sinks.end());
                ++my_groups;
            }
            ReplayWorkerStats &ws = stats.workers[w];
            ws.workerId = w;
            ws.sinkGroups = my_groups;
            const auto t0 = Clock::now();
            TraceChunkPtr chunk;
            // Containment contract: an exception out of an observer (or
            // an injected fault) is recorded in ws.error, and the
            // worker *keeps draining the queue* — each consumer has its
            // own cursor in the broadcast queue, so a worker that
            // simply stopped popping would stall the producer forever
            // once backpressure engages. The experiment as a whole is
            // failed after the join (ExperimentFailure).
            while (queue.pop(w, chunk)) {
                if (ws.error.empty()) {
                    try {
                        if (TEA_FAILPOINT(fpQueuePop))
                            fpQueuePop.raise();
                        if (TEA_FAILPOINT(fpWorkerBody))
                            fpWorkerBody.raise();
                        ++ws.chunksConsumed;
                        ws.eventsReplayed += chunk->events.size();
                        ws.cyclesReplayed += replayChunk(*chunk, sinks);
                    } catch (const std::exception &e) {
                        ws.error = e.what();
                    } catch (...) {
                        ws.error = "unknown exception in replay worker";
                    }
                }
                chunk.reset();
            }
            ws.replaySeconds = secondsSince(t0);
            ws.queueEmptyWaits = queue.emptyWaits(w);
        });
    }

    const auto start = Clock::now();
    try {
        pump([&](TraceChunkPtr c) {
            if (TEA_FAILPOINT(fpQueuePush))
                fpQueuePush.raise();
            ++stats.chunksProduced;
            stats.eventsCaptured += c->events.size();
            queue.push(std::move(c));
        });
    } catch (...) {
        // The producer died mid-trace. Close the queue and join the
        // workers before the exception unwinds this frame: destroying
        // a joinable std::thread is std::terminate, which would turn a
        // containable experiment failure into process death (and leak
        // any half-written cache temporary on the way out).
        queue.close();
        for (std::thread &t : pool)
            t.join();
        throw;
    }
    stats.simulateSeconds = secondsSince(start);
    queue.close();
    for (std::thread &t : pool)
        t.join();
    stats.totalSeconds = secondsSince(start);
    stats.queueFullStalls = queue.fullWaits();
    for (const ReplayWorkerStats &ws : stats.workers) {
        stats.replaySeconds = std::max(stats.replaySeconds,
                                       ws.replaySeconds);
        if (!ws.error.empty())
            ++stats.workerFailures;
    }
    return stats;
}

namespace {

/**
 * Source of a cache hit: decode every frame of @p mapped into
 * @p deliver, in file order. Exactly one chunk is in flight when the
 * consumer is inline, so nextChunk() recycles one warm output buffer
 * (measured: batching serial decodes cost ~20%); the pool holds up to
 * queueChunks chunks, and nextChunk()'s storage ring grows to match.
 *
 * @return seconds spent in the decode calls only, so observer time and
 *         backpressure against the pool never count as decode work
 */
double
decodeEntry(MappedTraceFile &mapped, const ChunkPush &deliver)
{
    double seconds = 0.0;
    for (;;) {
        const auto t0 = Clock::now();
        TraceChunkPtr chunk = mapped.nextChunk();
        seconds += secondsSince(t0);
        if (!chunk)
            return seconds;
        deliver(std::move(chunk));
    }
}

/**
 * The trace-cache protocol of one experiment. Construction leaves
 * either `hit` (a validated entry) or, on a miss that won the entry
 * lock, `writer` set; finish() publishes and cleans up after a
 * successful run. Destruction without finish() (the run threw)
 * abandons the half-written entry and drops the lock.
 */
struct CacheSession
{
    CacheSession(const RunnerOptions &opts, const Workload &workload,
                 const CoreConfig &cfg, const std::string &name)
        : opts(opts), cache(opts.cache)
    {
        if (!cache.enabled())
            return;
        // First access in this process: reclaim crash debris (orphaned
        // tmp files, stale locks, aged quarantine) left by previous
        // runs before stacking new work on top of it.
        recovered = CacheJanitor::recoverOnce(cache.options().dir,
                                              opts.janitor);
        // The fingerprint keys on workload content, the full config and
        // the codec version, so a hit is guaranteed to replay the exact
        // trace a fresh simulation would produce.
        const std::uint64_t fp = TraceCache::fingerprintOf(workload, cfg);
        const std::string entry = cache.entryPath(name, fp);
        hit = cache.openEntry(entry, fp, &ops);
        if (hit)
            return; // a hit needs no lock: the mapping pins the file
        // The rewrite must be serialized against concurrent processes
        // aiming at the same entry — tmp+rename makes the publish
        // atomic, but without the lock both would simulate and race
        // their renames.
        const std::string lockPath = TraceCache::lockPathFor(entry);
        if (!lock.acquire(lockPath, opts.cacheLockTimeoutMs)) {
            ++lockDegrades;
            tea_warn("trace cache: cannot lock %s within %u ms; "
                     "simulating without storing",
                     lockPath.c_str(), opts.cacheLockTimeoutMs);
            return;
        }
        // Revalidate under the lock: whoever held it before us may have
        // published a healthy entry while we waited.
        hit = cache.openEntry(entry, fp, &ops);
        if (hit) {
            lock.release();
            return;
        }
        writer = std::make_unique<CompactTraceWriter>(entry, fp);
        // Admission control: an entry that alone exceeds the cache
        // budget would be evicted by the very next janitor pass.
        writer->setByteLimit(opts.janitor.maxBytes);
    }

    /**
     * Publish a stored entry with the run's @p stats and, when the
     * store may have pushed the cache past its byte budget, run a
     * janitor pass to evict the coldest entries back under it. Every
     * cache counter lands in @p out.
     */
    void finish(const CoreStats &stats, ReplayStats &out)
    {
        auto addJanitor = [&out](const JanitorStats &js) {
            out.janitorRemovals += js.removals();
            out.cacheEvictions += js.evictedEntries;
            out.cacheEvictedBytes += js.evictedBytes;
        };
        addJanitor(recovered);
        out.lockDegrades += lockDegrades;
        out.ioRetries += ops.retry.retries;
        out.ioRecoveries += ops.retry.recoveries;
        out.quarantined += ops.quarantined;
        out.cacheHit = hit != nullptr;
        if (hit)
            out.cacheBytes = hit->fileBytes();
        if (!writer)
            return;
        out.cacheStored = writer->commit(stats);
        out.cacheBytes = writer->bytesWritten();
        out.cacheAdmissionDenied = writer->admissionDenied();
        out.ioRetries += writer->retryStats().retries;
        out.ioRecoveries += writer->retryStats().recoveries;
        lock.release();
        if (opts.janitor.maxBytes > 0 && out.cacheStored)
            addJanitor(CacheJanitor(cache.options().dir, opts.janitor).gc());
    }

    const RunnerOptions &opts;
    TraceCache cache;
    JanitorStats recovered;
    unsigned lockDegrades = 0;
    CacheOpStats ops;
    FileLock lock;
    std::unique_ptr<MappedTraceFile> hit;
    std::unique_ptr<CompactTraceWriter> writer;
};

} // namespace

ExperimentResult
runWorkload(Workload workload, std::vector<SamplerConfig> techniques,
            const RunnerOptions &opts, const CoreConfig &cfg)
{
    // Static init is long over: a TEA_FAILPOINTS entry still parked
    // names no seam in this binary and must not silently test nothing.
    failpoints::checkEnvConsumed();

    // TEA_AUDIT >= 2 re-runs pooled or time-parallel experiments fully
    // serially; keep a pristine copy before the run consumes it.
    std::unique_ptr<Workload> pristine;
    if (opts.audit >= 2 && (opts.threads > 1 || opts.sim.wantsParallel()))
        pristine = std::make_unique<Workload>(workload);

    const auto start = Clock::now();
    ExperimentResult res;
    res.name = workload.program.name();
    res.golden = std::make_unique<GoldenReference>();
    res.golden->reserveCells(workload.program.size());

    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    samplers.reserve(techniques.size());
    for (SamplerConfig &tc : techniques) {
        samplers.push_back(std::make_unique<TechniqueSampler>(tc));
        samplers.back()->reserveCells(workload.program.size());
    }

    // One observer group per technique plus the golden reference: the
    // unit of replay parallelism. The auditor, when enabled, rides
    // along as one more group — it sees the identical event stream the
    // profilers see, on whichever worker it lands on.
    std::unique_ptr<InvariantAuditor> auditor;
    if (opts.audit > 0)
        auditor = std::make_unique<InvariantAuditor>(
            InvariantAuditor::Mode::FailFast);
    std::vector<SinkGroup> groups;
    groups.reserve(samplers.size() + 2);
    groups.push_back(SinkGroup{{res.golden.get()}});
    for (auto &s : samplers)
        groups.push_back(SinkGroup{{s.get()}});
    if (auditor)
        groups.push_back(SinkGroup{{auditor.get()}});

    CacheSession cache(opts, workload, cfg, res.name);
    MappedTraceFile *const hit = cache.hit.get();
    CompactTraceWriter *const writer = cache.writer.get();

    // Source: the whole trace in capture order. A hit decodes the entry
    // into @p push. A miss simulates (serially, or along the time axis
    // when opts.sim asks; nothing downstream can tell) straight into
    // the @p live sinks, chunking the stream only for the chunk takers:
    // the pool (@p live null) and the cache writer. A serial inline run
    // thus pays no per-event chunk copy unless it stores.
    CoreStats simStats;
    SimPerf simPerf;
    TimeParallelStats simPar;
    double simulateSeconds = 0.0, decodeSeconds = 0.0;
    std::uint64_t chunks = 0, events = 0;
    auto produce = [&](const std::vector<TraceSink *> *live,
                       const ChunkPush &push) {
        if (hit) {
            decodeSeconds = decodeEntry(*hit, push);
            return;
        }
        std::vector<TraceSink *> sinks;
        if (live)
            sinks = *live;
        ChunkingSink chunker(opts.chunkEvents, [&](TraceChunkPtr c) {
            if (writer)
                writer->writeChunk(*c);
            if (!live)
                push(std::move(c));
        });
        if (!live || writer)
            sinks.push_back(&chunker);
        const auto t0 = Clock::now();
        simPar = simulateTimeParallel(cfg, workload.program,
                                      std::move(workload.initial), opts.sim,
                                      sinks, &simStats, &simPerf);
        simulateSeconds = secondsSince(t0);
        chunker.finish();
        chunks = chunker.chunksEmitted();
        events = chunker.eventsCaptured();
    };

    // Consumer: every observer inline on this thread, or the replay
    // pool (which reports its own chunk counters and worker stats).
    if (opts.threads <= 1) {
        std::vector<TraceSink *> sinks;
        for (const SinkGroup &g : groups)
            sinks.insert(sinks.end(), g.sinks.begin(), g.sinks.end());
        produce(&sinks, [&](TraceChunkPtr chunk) {
            const auto t0 = Clock::now();
            replayChunk(*chunk, sinks);
            res.replay.replaySeconds += secondsSince(t0);
            ++chunks;
            events += chunk->events.size();
        });
        res.replay.chunksProduced = chunks;
        res.replay.eventsCaptured = events;
    } else {
        res.replay = replayChunksThroughPool(
            groups, opts,
            [&](const ChunkPush &push) { produce(nullptr, push); });
    }
    res.replay.simulateSeconds = simulateSeconds;
    res.replay.decodeSeconds = decodeSeconds;
    // On a hit no core was built: the recorded CoreStats stand in.
    res.stats = hit ? hit->coreStats() : simStats;
    res.replay.simCycles = simStats.cycles;
    res.replay.simEvents = simPerf.traceEvents;
    res.replay.simParallel = simPar.usedParallel;
    res.replay.simIntervals = simPar.intervals;
    res.replay.simWarmupCycles = simPar.warmupCycles;
    res.replay.simConvergenceRetries = simPar.convergenceRetries;
    res.replay.simParallelEfficiency = simPar.parallelEfficiency;
    res.replay.simPeakBufferedBytes = simPar.peakBufferedBytes;
    cache.finish(res.stats, res.replay);

    if (res.replay.workerFailures > 0) {
        std::string first;
        for (const ReplayWorkerStats &ws : res.replay.workers) {
            if (!ws.error.empty()) {
                first = strprintf("worker %u: %s", ws.workerId,
                                  ws.error.c_str());
                break;
            }
        }
        throw ExperimentFailure(strprintf(
            "experiment '%s': %u replay worker(s) failed (%s)",
            res.name.c_str(), res.replay.workerFailures, first.c_str()));
    }

    if (auditor) {
        auditor->finish();
        // A cached trace must describe exactly as many cycles as the
        // recorded CoreStats claim — this is the check that catches a
        // stale or truncated cache entry slipping past validation.
        if (auditor->cyclesAudited() != res.stats.cycles) {
            tea_fatal("TEA audit: replay delivered %llu cycle records "
                      "but core stats claim %llu cycles (%s)",
                      static_cast<unsigned long long>(
                          auditor->cyclesAudited()),
                      static_cast<unsigned long long>(res.stats.cycles),
                      res.replay.cacheHit ? "stale trace-cache entry?"
                                          : "trace capture dropped "
                                            "events");
        }
        const std::string conservation =
            auditCycleConservation(*res.golden, res.stats.cycles);
        if (!conservation.empty())
            tea_fatal("TEA audit: %s", conservation.c_str());
    }

    for (auto &s : samplers) {
        res.techniques.push_back(TechniqueResult{
            s->config(), s->pics(), s->samplesTaken(),
            s->samplesDropped()});
    }
    res.program = std::move(workload.program);
    res.replay.totalSeconds = secondsSince(start);

    if (pristine) {
        // Determinism contract (DESIGN.md, "Out-of-band replay at
        // scale"): a fully serial run — inline observers, serial
        // simulation, no cache, its own trace still audited — must
        // yield bit-identical Pics for the golden reference and every
        // technique.
        RunnerOptions serial = opts;
        serial.threads = 1;
        serial.audit = 1;
        serial.cache.enabled = false;
        serial.sim.threads = 1;
        const ExperimentResult ref =
            runWorkload(std::move(*pristine), techniques, serial, cfg);
        std::string what = "golden";
        std::string diff =
            auditPicsIdentical(res.golden->pics(), ref.golden->pics());
        for (std::size_t i = 0; diff.empty() && i < res.techniques.size();
             ++i) {
            what = "technique '" + res.techniques[i].config.name + "'";
            diff = auditPicsIdentical(res.techniques[i].pics,
                                      ref.techniques.at(i).pics);
        }
        if (!diff.empty())
            tea_fatal("TEA audit: %s PICS diverges between %u replay "
                      "thread(s) with time-parallel simulation %s and "
                      "the serial reference: %s",
                      what.c_str(), opts.threads,
                      res.replay.simParallel ? "on" : "off", diff.c_str());
    }
    return res;
}

ExperimentResult
runBenchmark(const std::string &name, std::vector<SamplerConfig> techniques,
             const RunnerOptions &opts, const CoreConfig &cfg)
{
    return runWorkload(workloads::byName(name), std::move(techniques),
                       opts, cfg);
}

std::vector<ExperimentResult>
runExperimentSuite(const std::vector<SuiteExperiment> &experiments,
                   const std::vector<SamplerConfig> &techniques,
                   const RunnerOptions &opts)
{
    std::vector<ExperimentResult> results(experiments.size());
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1,
        std::min<std::size_t>(opts.threads, experiments.size())));
    // Each experiment runs the serial in-process path (fully
    // independent, bit-identical result) but keeps the caller's
    // trace-cache settings: a warm cache turns the whole suite into
    // parallel decode-and-replay with no simulation at all.
    RunnerOptions inner = opts;
    inner.threads = 1;

    // Containment: one experiment failing — an observer exception, a
    // contained replay-worker death (ExperimentFailure), an injected
    // fault — must not take the rest of the suite with it. The failure
    // is recorded on that experiment's result; everything else
    // completes normally.
    auto runOne = [&](std::size_t i) {
        const SuiteExperiment &exp = experiments[i];
        try {
            if (TEA_FAILPOINT(fpExperiment))
                fpExperiment.raise();
            results[i] =
                runWorkload(exp.make(), techniques, inner, exp.cfg);
            // The experiment name (not the program name): a sweep runs
            // the same kernel under several configurations and the
            // results must stay distinguishable.
            results[i].name = exp.name;
        } catch (const std::exception &e) {
            results[i].name = exp.name;
            results[i].error = e.what();
            tea_warn("suite: experiment '%s' failed (contained): %s",
                     exp.name.c_str(), e.what());
        } catch (...) {
            results[i].name = exp.name;
            results[i].error = "unknown exception";
            tea_warn("suite: experiment '%s' failed (contained): "
                     "unknown exception",
                     exp.name.c_str());
        }
    };

    if (workers <= 1) {
        for (std::size_t i = 0; i < experiments.size(); ++i)
            runOne(i);
    } else {
        std::atomic<std::size_t> next{0};
        std::vector<std::thread> pool;
        pool.reserve(workers);
        for (unsigned w = 0; w < workers; ++w) {
            // Cannot throw: runOne catches everything internally and
            // fetch_add/size are noexcept.
            // relaxed: the cursor only partitions experiment indices;
            // results[i] is touched by exactly one worker and the
            // thread join orders it before the suite reads it.
            // tea_lint: allow(unguarded-worker)
            pool.emplace_back([&] {
                for (std::size_t i =
                         next.fetch_add(1, std::memory_order_relaxed);
                     i < experiments.size();
                     i = next.fetch_add(1, std::memory_order_relaxed)) {
                    runOne(i);
                }
            });
        }
        for (std::thread &t : pool)
            t.join();
    }

    // Stamp the suite-wide degradation count on every result so any
    // single result's ReplayStats reveals that the suite it came from
    // was not fully healthy.
    unsigned degraded = 0;
    for (const ExperimentResult &r : results)
        degraded += r.failed() ? 1 : 0;
    if (degraded > 0) {
        for (ExperimentResult &r : results)
            r.replay.degradedExperiments = degraded;
    }
    return results;
}

std::vector<ExperimentResult>
runBenchmarkSuite(const std::vector<std::string> &names,
                  const std::vector<SamplerConfig> &techniques,
                  const RunnerOptions &opts, const CoreConfig &cfg)
{
    std::vector<SuiteExperiment> experiments;
    experiments.reserve(names.size());
    for (const std::string &name : names) {
        experiments.push_back(SuiteExperiment{
            name, [name] { return workloads::byName(name); }, cfg});
    }
    return runExperimentSuite(experiments, techniques, opts);
}

std::string
renderSuiteErrors(const std::vector<ExperimentResult> &results)
{
    std::string out;
    for (const ExperimentResult &r : results) {
        if (r.failed())
            out += strprintf("experiment '%s' FAILED: %s\n",
                             r.name.c_str(), r.error.c_str());
    }
    return out;
}

int
suiteExitCode(const std::vector<ExperimentResult> &results)
{
    const std::string errors = renderSuiteErrors(results);
    if (errors.empty())
        return 0;
    // Terminal output, not file I/O: no seams apply.
    // tea_check: allow(raw-io)
    std::fputs(errors.c_str(), stderr);
    return 1;
}

} // namespace tea
