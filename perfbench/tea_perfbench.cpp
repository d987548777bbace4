/**
 * @file
 * TEA pipeline benchmark harness: one workload per invocation.
 *
 *   tea_perfbench --workload NAME --seed N --seconds S --trace 0|1
 *                 --reference FILE [--smoke] [--corrupt-digest]
 *                 [--work-dir DIR]
 *
 * Untraced iterations call the library exactly as its tools do
 * (runExperimentSuite, runWorkload) and give the end-to-end metrics.
 * Traced iterations (--trace 1) drive the same work through the
 * layers' public calls from this file, with spans around each call,
 * and give the per-layer metrics; they alternate with untraced
 * iterations so trace.overhead_pct compares like with like. Every
 * experiment's PICS digest is checked against the digests committed in
 * the --reference file and against the run's own reference; see
 * README.md for the workloads and metric definitions.
 *
 * The last stdout line is the JSON result; earlier lines give the
 * machine/build fingerprint and each metric's median, quartiles and
 * sample count.
 */

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <stdexcept>
#include <string>
#include <thread>
#include <malloc.h>
#include <sys/resource.h>
#include <unistd.h>
#include <utility>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/cache_janitor.hh"
#include "analysis/parallel_runner.hh"
#include "analysis/parallel_sim.hh"
#include "analysis/runner.hh"
#include "analysis/sweep.hh"
#include "analysis/trace_cache.hh"
#include "common/file_lock.hh"
#include "common/fingerprint.hh"
#include "common/logging.hh"
#include "core/checkpoint.hh"
#include "core/core.hh"
#include "core/trace_codec.hh"
#include "core/trace_io.hh"
#include "core/varint.hh"
#include "workloads/kernel_gen.hh"
#include "workloads/workload.hh"

#include "spans.hh"

using namespace tea;
using perfbench::Clock;
using perfbench::Counters;
using perfbench::SpanRecorder;
using perfbench::TimingSink;
using perfbench::secondsBetween;
using perfbench::timed;

namespace fs = std::filesystem;

namespace {

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    bool smoke = false;
    bool corruptDigest = false;
    std::string workDir = ".bench_run";
    std::string referencePath;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "tea_perfbench: %s\nusage: tea_perfbench --workload "
                 "fig5-cold|fig5-warm|sweep-kgen|single-simpar --seed N "
                 "--seconds S --trace 0|1 --reference FILE [--smoke] "
                 "[--corrupt-digest] [--work-dir DIR]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args a;
    for (int i = 1; i < argc; ++i) {
        const std::string k = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage(("missing value for " + k).c_str());
            return argv[++i];
        };
        try {
            if (k == "--workload")
                a.workload = value();
            else if (k == "--seed")
                a.seed = std::stoull(value());
            else if (k == "--seconds")
                a.seconds = std::stod(value());
            else if (k == "--trace")
                a.trace = std::stoi(value()) != 0;
            else if (k == "--work-dir")
                a.workDir = value();
            else if (k == "--reference")
                a.referencePath = value();
            else if (k == "--smoke")
                a.smoke = true;
            else if (k == "--corrupt-digest")
                a.corruptDigest = true;
            else
                usage(("unknown argument " + k).c_str());
        } catch (const std::logic_error &) {
            usage(("bad value for " + k).c_str());
        }
    }
    if (a.workload.empty())
        usage("--workload is required");
    if (a.referencePath.empty())
        usage("--reference is required");
    if (!(a.seconds > 0.0))
        usage("--seconds must be positive");
    return a;
}

// ------------------------------------------------------------------
// Environment: the library reads its knobs through
// RunnerOptions::fromEnv(); scrub every TEA_* variable the caller may
// have set so only the benchmark's own settings apply.

void
scrubTeaEnv()
{
    std::vector<std::string> names;
    for (char **e = environ; *e; ++e) {
        const std::string kv = *e;
        if (kv.rfind("TEA_", 0) == 0)
            names.push_back(kv.substr(0, kv.find('=')));
    }
    for (const std::string &n : names)
        ::unsetenv(n.c_str());
}

/** Suite parallelism: at most nproc experiments in flight, capped at 4. */
unsigned
slotCount()
{
    return std::clamp(std::thread::hardware_concurrency(), 1u, 4u);
}

RunnerOptions
optionsFor(unsigned threads, const std::string &cache_dir,
           unsigned sim_threads = 1)
{
    scrubTeaEnv();
    ::setenv("TEA_THREADS", std::to_string(threads).c_str(), 1);
    ::setenv("TEA_SIM_THREADS", std::to_string(sim_threads).c_str(), 1);
    if (!cache_dir.empty()) {
        ::setenv("TEA_TRACE_CACHE", "1", 1);
        ::setenv("TEA_TRACE_CACHE_DIR", cache_dir.c_str(), 1);
    }
    RunnerOptions o = RunnerOptions::fromEnv();
    scrubTeaEnv();
    return o;
}

// ------------------------------------------------------------------
// Correctness: PICS digests and cycle conservation.

std::uint64_t
picsDigest(const Pics &p)
{
    std::vector<PicsComponent> comps = p.components();
    std::sort(comps.begin(), comps.end(),
              [](const PicsComponent &a, const PicsComponent &b) {
                  return a.unit != b.unit ? a.unit < b.unit
                                          : a.signature < b.signature;
              });
    Fnv1a h;
    auto addDouble = [&](double d) {
        std::uint64_t bits = 0;
        std::memcpy(&bits, &d, sizeof bits);
        h.add(bits);
    };
    for (const PicsComponent &c : comps) {
        h.add(c.unit);
        h.add(c.signature);
        addDouble(c.cycles);
    }
    addDouble(p.total());
    return h.value();
}

/** Digest of the golden PICS, every technique's PICS and the stats. */
std::uint64_t
resultDigest(const ExperimentResult &r)
{
    Fnv1a h;
    h.add(picsDigest(r.golden->pics()));
    for (const TechniqueResult &t : r.techniques) {
        h.add(std::string_view(t.config.name));
        h.add(picsDigest(t.pics));
        h.add(t.samplesTaken);
        h.add(t.samplesDropped);
    }
    h.add(r.stats.cycles);
    h.add(r.stats.committedUops);
    return h.value();
}

/** What one experiment of one iteration produced. */
struct ExpOutcome
{
    std::string name;
    std::string error;     ///< contained failure or failed check
    bool hasLatency = false; ///< startS/latencyS are valid
    double startS = 0.0;   ///< slot start, seconds since iteration start
    double latencyS = 0.0; ///< slot start to result
    std::uint64_t insts = 0;
    std::uint64_t digest = 0;
    double teaError = 0.0;
    bool hit = false;
    bool stored = false;
};

ExpOutcome
outcomeOf(const ExperimentResult &r)
{
    ExpOutcome o;
    o.name = r.name;
    if (r.failed()) {
        o.error = r.error;
        return o;
    }
    o.insts = r.stats.committedUops;
    o.digest = resultDigest(r);
    o.teaError = r.errorOf(r.technique("TEA"));
    o.hit = r.replay.cacheHit;
    o.stored = r.replay.cacheStored;
    const std::string cons = auditCycleConservation(*r.golden,
                                                    r.stats.cycles);
    if (!cons.empty())
        o.error = "golden cycles != CoreStats::cycles: " + cons;
    return o;
}

struct Iteration
{
    bool traced = false;
    double wallS = 0.0;
    std::vector<ExpOutcome> exps;
    Counters layers; ///< per-layer sums (traced) or runner timings
    double peakRssMb = 0.0;
};

// ------------------------------------------------------------------
// Untraced suite: runExperimentSuite itself, with each factory call
// stamped so slot waits and per-experiment latency are measurable.

Iteration
runSuite(const std::vector<SuiteExperiment> &exps,
         const std::vector<SamplerConfig> &techs, const RunnerOptions &opts,
         std::vector<ExperimentResult> *keep = nullptr)
{
    struct Stamp
    {
        Clock::time_point start;
        double buildS = -1.0;
        std::thread::id thread;
    };
    std::vector<Stamp> stamps(exps.size());
    std::vector<SuiteExperiment> wrapped;
    wrapped.reserve(exps.size());
    for (std::size_t i = 0; i < exps.size(); ++i) {
        wrapped.push_back(SuiteExperiment{
            exps[i].name,
            [&exps, &stamps, i] {
                Stamp &s = stamps[i];
                s.start = Clock::now();
                s.thread = std::this_thread::get_id();
                Workload w = exps[i].make();
                s.buildS = secondsBetween(s.start, Clock::now());
                return w;
            },
            exps[i].cfg});
    }
    Iteration it;
    const auto t0 = Clock::now();
    std::vector<ExperimentResult> results =
        runExperimentSuite(wrapped, techs, opts);
    it.wallS = secondsBetween(t0, Clock::now());

    std::map<std::thread::id, double> slotEnd;
    for (std::size_t i = 0; i < results.size(); ++i) {
        ExpOutcome o = outcomeOf(results[i]);
        const Stamp &s = stamps[i];
        if (s.buildS >= 0.0) {
            o.hasLatency = true;
            o.startS = secondsBetween(t0, s.start);
            o.latencyS = s.buildS + results[i].replay.totalSeconds;
            it.layers["parallel_runner.slot_wait_s"] += o.startS;
            double &end = slotEnd[s.thread];
            end = std::max(end, o.startS + o.latencyS);
        }
        it.exps.push_back(std::move(o));
    }
    for (const auto &[thread, end] : slotEnd)
        it.layers["parallel_runner.tail_idle_s"] +=
            std::max(0.0, it.wallS - end);
    if (keep)
        *keep = std::move(results);
    return it;
}

// ------------------------------------------------------------------
// Traced experiment: the runWorkload flow rebuilt from public layer
// calls, each inside a span. Observers are wrapped in TimingSinks.

struct TracedExperiment
{
    ExperimentResult result;
    Counters layers;
};

TracedExperiment
runTracedExperiment(const SuiteExperiment &exp,
                    const std::vector<SamplerConfig> &techs,
                    const RunnerOptions &opts, SpanRecorder &rec,
                    std::int64_t id)
{
    TracedExperiment out;
    Counters &c = out.layers;
    ExperimentResult &res = out.result;
    const CoreConfig &cfg = exp.cfg;

    Workload w = timed(rec, c, "workloads.build_s", id, exp.make);
    res.name = exp.name;
    res.golden = std::make_unique<GoldenReference>();
    res.golden->reserveCells(w.program.size());
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    for (const SamplerConfig &tc : techs) {
        samplers.push_back(std::make_unique<TechniqueSampler>(tc));
        samplers.back()->reserveCells(w.program.size());
    }
    std::vector<std::unique_ptr<TimingSink>> timers;
    timers.push_back(std::make_unique<TimingSink>(*res.golden));
    for (auto &s : samplers)
        timers.push_back(std::make_unique<TimingSink>(*s));
    std::vector<TraceSink *> observers;
    for (auto &t : timers)
        observers.push_back(t.get());

    TraceCache cache(opts.cache);
    std::uint64_t fp = 0;
    std::string entry;
    std::unique_ptr<MappedTraceFile> mapped;
    if (cache.enabled()) {
        timed(rec, c, "trace_cache.lookup_s", id, [&] {
            fp = TraceCache::fingerprintOf(w, cfg);
            entry = cache.entryPath(w.program.name(), fp);
            return 0;
        });
        std::error_code ec;
        if (fs::exists(entry, ec)) {
            mapped = timed(rec, c, "trace_io.map_s", id, [&] {
                std::string why;
                return MappedTraceFile::open(entry, fp, &why);
            });
        }
        c["trace_cache.lookups"] += 1;
        c["trace_cache.hits"] += mapped ? 1 : 0;
    }

    std::uint64_t events = 0;
    // Codec output is counted as encodeChunk frame bytes on both paths;
    // the entry file adds its header and the CoreStats.
    std::vector<std::uint8_t> frame;
    if (mapped) {
        // Warm hit: decode frame by frame, replay each chunk inline.
        // Re-encoding each decoded chunk (outside decode_s) gives its
        // frame size, since the file's frame table is not public.
        double decode = 0.0, frameBytes = 0.0;
        for (;;) {
            const auto t0 = Clock::now();
            TraceChunkPtr chunk = mapped->nextChunk();
            decode += secondsBetween(t0, Clock::now());
            if (!chunk)
                break;
            events += chunk->events.size();
            frame.clear();
            encodeChunk(*chunk, frame);
            frameBytes += static_cast<double>(frame.size());
            replayChunk(*chunk, observers);
        }
        c["trace_codec.decode_s"] += decode;
        c["trace_codec.decode_events"] += static_cast<double>(events);
        c["trace_codec.frame_bytes"] += frameBytes;
        c["trace_cache.entry_bytes"] +=
            static_cast<double>(mapped->fileBytes());
        c["trace_codec.coded_events"] += static_cast<double>(events);
        res.stats = mapped->coreStats();
        res.replay.cacheHit = true;
        res.replay.cacheBytes = mapped->fileBytes();
    } else {
        // Miss or no cache: simulate; on a miss tee chunks into the
        // codec and the cache writer (store path).
        FileLock lock;
        std::unique_ptr<CompactTraceWriter> writer;
        if (cache.enabled()) {
            timed(rec, c, "trace_cache.store_s", id, [&] {
                if (lock.acquire(TraceCache::lockPathFor(entry),
                                 opts.cacheLockTimeoutMs)) {
                    writer = std::make_unique<CompactTraceWriter>(entry, fp);
                    writer->setByteLimit(opts.janitor.maxBytes);
                }
                return 0;
            });
        }
        // writeChunk encodes the chunk itself; timing a separate
        // encodeChunk of the same chunk splits codec time from I/O time
        // (write_s = writeChunk + commit - encode_s).
        double encode = 0.0, write = 0.0, frameBytes = 0.0;
        ChunkingSink tee(opts.chunkEvents, [&](TraceChunkPtr chunk) {
            frame.clear();
            const auto t0 = Clock::now();
            encodeChunk(*chunk, frame);
            const auto t1 = Clock::now();
            writer->writeChunk(*chunk);
            encode += secondsBetween(t0, t1);
            write += secondsBetween(t1, Clock::now());
            frameBytes += static_cast<double>(frame.size());
        });
        TimingSink teeTimer(tee);

        CoreStats stats;
        SimPerf perf;
        if (opts.sim.wantsParallel()) {
            // Time-parallel simulation into the replay pool. Only
            // single-simpar takes this path, with the cache off.
            if (writer)
                throw std::logic_error("traced time-parallel run with cache");
            std::vector<SinkGroup> groups;
            for (TraceSink *o : observers)
                groups.push_back(SinkGroup{{o}});
            TimeParallelStats tp;
            res.replay = replayChunksThroughPool(
                groups, opts, [&](const ChunkPush &push) {
                    ChunkingSink sink(opts.chunkEvents,
                                      [&](TraceChunkPtr ch) {
                                          push(std::move(ch));
                                      });
                    timed(rec, c, "parallel_sim.run_s", id, [&] {
                        tp = simulateTimeParallel(cfg, w.program, w.initial,
                                                  opts.sim, {&sink},
                                                  &stats, &perf);
                        return 0;
                    });
                    sink.finish();
                });
            c["parallel_sim.intervals"] += static_cast<double>(tp.intervals);
            c["parallel_sim.retries"] +=
                static_cast<double>(tp.convergenceRetries);
            c["parallel_sim.efficiency"] += tp.parallelEfficiency;
            c["parallel_sim.warmup_cycles"] +=
                static_cast<double>(tp.warmupCycles);
            c["parallel_runner.queue_full_stalls"] +=
                static_cast<double>(res.replay.queueFullStalls);
            // ReplayWorkerStats::replaySeconds includes waiting for
            // chunks; busy time is the observer time of each worker's
            // round-robin share of the groups.
            std::vector<double> busy(
                std::min<std::size_t>(opts.threads, groups.size()), 0.0);
            for (std::size_t g = 0; g < timers.size(); ++g)
                busy[g % busy.size()] += timers[g]->seconds();
            c["parallel_runner.replay_busy_s.max"] +=
                *std::max_element(busy.begin(), busy.end());
            c["parallel_runner.replay_busy_s.min"] +=
                *std::min_element(busy.begin(), busy.end());
        } else {
            std::vector<TraceSink *> sinks = observers;
            if (writer)
                sinks.push_back(&teeTimer);
            Core core(cfg, w.program, std::move(w.initial));
            for (TraceSink *s : sinks)
                core.addSink(s);
            const auto t0 = Clock::now();
            core.run();
            const auto t1 = Clock::now();
            rec.record("core.run", id, t0, t1);
            // Self time: the sinks run inside Core::run.
            double inSinks = 0.0;
            for (TraceSink *s : sinks)
                inSinks += static_cast<TimingSink *>(s)->seconds();
            c["core.run_s"] +=
                std::max(0.0, secondsBetween(t0, t1) - inSinks);
            stats = core.stats();
            perf = core.perf();
        }
        c["core.cycles"] += static_cast<double>(stats.cycles);
        c["core.events"] += static_cast<double>(perf.traceEvents);
        c["core.active_cycles"] += static_cast<double>(perf.activeCycles);
        c["core.skipped_cycles"] += static_cast<double>(perf.skippedCycles);
        res.stats = stats;

        if (writer) {
            timed(rec, c, "trace_cache.store_s", id, [&] {
                tee.finish();
                const auto t0 = Clock::now();
                res.replay.cacheStored = writer->commit(stats);
                write += secondsBetween(t0, Clock::now());
                res.replay.cacheBytes = writer->bytesWritten();
                lock.release();
                return 0;
            });
            c["trace_cache.store_s"] += teeTimer.seconds();
            c["trace_codec.encode_s"] += encode;
            c["trace_io.write_s"] += std::max(0.0, write - encode);
            c["trace_codec.frame_bytes"] += frameBytes;
            c["trace_codec.coded_events"] +=
                static_cast<double>(tee.eventsCaptured());
            c["trace_cache.entry_bytes"] +=
                static_cast<double>(res.replay.cacheBytes);
        }
        events = perf.traceEvents;
    }

    c["profilers.golden_s"] += timers[0]->seconds();
    for (std::size_t i = 0; i < samplers.size(); ++i) {
        c["profilers.sampler_s." + samplers[i]->config().name] +=
            timers[i + 1]->seconds();
    }
    for (const auto &t : timers)
        c["profilers.events"] += static_cast<double>(t->events());

    for (auto &s : samplers) {
        res.techniques.push_back(TechniqueResult{
            s->config(), s->pics(), s->samplesTaken(), s->samplesDropped()});
    }
    res.program = std::move(w.program);
    return out;
}

/** Traced suite: runExperimentSuite's slot policy around traced runs. */
Iteration
runSuiteTraced(const std::vector<SuiteExperiment> &exps,
               const std::vector<SamplerConfig> &techs,
               const RunnerOptions &opts, SpanRecorder &rec,
               std::vector<ExperimentResult> *keep = nullptr)
{
    RunnerOptions inner = opts;
    inner.threads = 1;
    const unsigned workers = static_cast<unsigned>(std::max<std::size_t>(
        1, std::min<std::size_t>(opts.threads, exps.size())));
    std::vector<ExpOutcome> outcomes(exps.size());
    std::vector<Counters> layers(exps.size());
    std::vector<ExperimentResult> results(keep ? exps.size() : 0);
    std::atomic<std::size_t> next{0};

    Iteration it;
    it.traced = true;
    const auto t0 = Clock::now();
    // A fresh process's first cache access runs one janitor pass
    // (CacheJanitor::recoverOnce); later calls in the same process do
    // nothing, so the pass is timed once per traced suite.
    const TraceCache cache(opts.cache);
    if (cache.enabled()) {
        timed(rec, it.layers, "cache_janitor.gc_s", -1, [&] {
            return CacheJanitor(cache.options().dir, opts.janitor).gc();
        });
    }
    auto work = [&] {
        for (std::size_t i = next.fetch_add(1); i < exps.size();
             i = next.fetch_add(1)) {
            const auto start = Clock::now();
            try {
                TracedExperiment te = runTracedExperiment(
                    exps[i], techs, inner, rec, static_cast<std::int64_t>(i));
                outcomes[i] = outcomeOf(te.result);
                layers[i] = std::move(te.layers);
                if (keep)
                    results[i] = std::move(te.result);
            } catch (const std::exception &e) {
                outcomes[i].name = exps[i].name;
                outcomes[i].error = e.what();
            }
            const auto end = Clock::now();
            rec.record("experiment", static_cast<std::int64_t>(i), start,
                       end);
            outcomes[i].hasLatency = true;
            outcomes[i].startS = secondsBetween(t0, start);
            outcomes[i].latencyS = secondsBetween(start, end);
        }
    };
    std::vector<std::thread> pool;
    for (unsigned w = 0; w < workers; ++w)
        pool.emplace_back(work);
    for (std::thread &t : pool)
        t.join();
    it.wallS = secondsBetween(t0, Clock::now());
    rec.record("suite", -1, t0, Clock::now());
    for (std::size_t i = 0; i < exps.size(); ++i) {
        perfbench::accumulate(it.layers, layers[i]);
        it.exps.push_back(std::move(outcomes[i]));
    }
    if (keep)
        *keep = std::move(results);
    return it;
}

// ------------------------------------------------------------------
// Workloads.

/** Reference digests by experiment name. */
using Reference = std::map<std::string, std::uint64_t>;

/**
 * Read the committed digests of one set from @p path: one
 * "<set> <experiment> <hex digest>" line each, '#' starts a comment.
 */
Reference
loadCommitted(const std::string &path, const std::string &set)
{
    std::ifstream in(path);
    if (!in)
        throw std::runtime_error("cannot read reference digests " + path);
    Reference ref;
    std::string line;
    while (std::getline(in, line)) {
        line = line.substr(0, line.find('#'));
        char setName[64], name[128];
        unsigned long long digest = 0;
        if (std::sscanf(line.c_str(), "%63s %127s %llx", setName, name,
                        &digest) == 3 &&
            set == setName)
            ref[name] = digest;
    }
    if (ref.empty())
        throw std::runtime_error("no '" + set + "' digests in " + path);
    return ref;
}

class Bench
{
  public:
    virtual ~Bench() = default;

    /** Set of committed digests (reference file) this bench checks. */
    virtual const char *committedSet() const = 0;
    /**
     * Whether every experiment of an iteration has a committed digest.
     * Otherwise only set-up outcomes are checked against the committed
     * digests, and iterations against the run's own reference.
     */
    virtual bool fixedInputs() const { return true; }
    /** Set-up repetitions; the median is setup_s. */
    virtual unsigned setupReps() const = 0;
    /**
     * One set-up (timed by the caller). Returns the outcomes of the
     * experiments it ran; each is checked against its committed digest.
     */
    virtual std::vector<ExpOutcome> setup() = 0;
    /** Untimed preparation before every iteration. */
    virtual void prepare() {}
    virtual Iteration run() = 0;
    virtual Iteration runTraced(SpanRecorder &rec) = 0;
    /** Extra per-outcome check (cache hit or store expectations). */
    virtual std::string expect(const ExpOutcome &o) const
    {
        (void)o;
        return {};
    }

    /** Digests committed with the benchmark, by experiment name. */
    Reference committed;
    /** The run's own reference: first digest seen per experiment. */
    Reference reference;
    /** Fingerprint of the inputs, where set-up builds them (else 0). */
    std::uint64_t inputFingerprint = 0;

  protected:
    std::vector<SamplerConfig> techs_ = standardTechniques();
};

std::vector<std::string>
fig5Names(bool smoke)
{
    if (smoke)
        return {"nab", "lbm", "mcf"};
    return workloads::suiteNames();
}

std::vector<SuiteExperiment>
fig5Experiments(bool smoke)
{
    std::vector<SuiteExperiment> exps;
    for (const std::string &name : fig5Names(smoke)) {
        exps.push_back(SuiteExperiment{
            name, [name] { return workloads::byName(name); }, CoreConfig{}});
    }
    return exps;
}

/**
 * The Fig. 5 suite with the trace cache on. Cold: every iteration
 * starts from an empty cache directory, so every experiment simulates,
 * encodes and publishes. Warm: set-up populates the cache, so every
 * experiment is a hit.
 */
class Fig5Bench : public Bench
{
  public:
    Fig5Bench(bool warm, bool smoke, const std::string &dir)
        : warm_(warm), dir_(dir),
          exps_(fig5Experiments(smoke))
    {
    }

    const char *committedSet() const override { return "fig5"; }

    unsigned setupReps() const override { return warm_ ? 2 : 5; }

    std::vector<ExpOutcome> setup() override
    {
        if (!warm_) {
            // Inputs: build every program and fingerprint it.
            Fnv1a h;
            for (const SuiteExperiment &e : exps_)
                h.add(TraceCache::fingerprintOf(e.make(), e.cfg));
            inputFingerprint = h.value();
            return {};
        }
        resetDir();
        Iteration pop = runSuite(exps_, techs_, opts());
        for (const ExpOutcome &o : pop.exps) {
            if (!o.error.empty() || !o.stored)
                throw std::runtime_error("fig5-warm set-up: '" + o.name +
                                         "' not stored: " + o.error);
        }
        return pop.exps;
    }

    void prepare() override
    {
        if (!warm_)
            resetDir();
    }

    Iteration run() override { return runSuite(exps_, techs_, opts()); }

    Iteration runTraced(SpanRecorder &rec) override
    {
        return runSuiteTraced(exps_, techs_, opts(), rec);
    }

    std::string expect(const ExpOutcome &o) const override
    {
        if (warm_ && !o.hit)
            return "warm experiment missed the cache";
        if (!warm_ && (o.hit || !o.stored))
            return "cold experiment did not simulate and store";
        return {};
    }

  private:
    RunnerOptions opts() const { return optionsFor(slotCount(), dir_); }

    void resetDir()
    {
        fs::remove_all(dir_);
        fs::create_directories(dir_);
        // Write back the previous iteration's deletions now, so their
        // I/O does not overlap the next timed iteration.
        ::sync();
    }

    bool warm_;
    std::string dir_;
    std::vector<SuiteExperiment> exps_;
};

/**
 * The 120-experiment example sweep (5 presets x 24 kernel variants),
 * cache off, with the kgen seed taken from --seed. Its digests depend
 * on the seed, so set-up also runs the 12-experiment smoke sweep at its
 * own fixed seed and checks that against the committed digests.
 */
class SweepBench : public Bench
{
  public:
    SweepBench(std::uint64_t seed, bool smoke)
    {
        spec_ = smoke ? smokeSweep() : exampleSweep();
        spec_.base.seed = seed;
        spec_.base.iterations = smoke ? 400 : 7500;
    }

    const char *committedSet() const override { return "kgen-probe"; }
    bool fixedInputs() const override { return false; }
    unsigned setupReps() const override { return 3; }

    std::vector<ExpOutcome> setup() override
    {
        // Inputs: expand the spec and fingerprint every kernel.
        const std::vector<SweepExperiment> exps = expandSweep(spec_);
        Fnv1a h;
        h.add(sweepExpansionFingerprint(exps));
        for (const SweepExperiment &e : exps)
            h.add(TraceCache::fingerprintOf(
                workloads::generateKernel(e.spec), e.cfg));
        inputFingerprint = h.value();

        Iteration probe = runSuite(suiteOf(expandSweep(smokeSweep())),
                                   techs_, optionsFor(slotCount(), ""));
        for (ExpOutcome &o : probe.exps)
            o.name = "probe/" + o.name;
        return probe.exps;
    }

    Iteration run() override
    {
        // runSweep's steps, with the suite call stamped per experiment.
        const auto t0 = Clock::now();
        SweepRunResult sr;
        sr.spec = spec_;
        sr.experiments = expandSweep(spec_);
        Iteration it = runSuite(suiteOf(sr.experiments), techs_,
                                optionsFor(slotCount(), ""), &sr.results);
        // The report is part of a sweep's cost; its text is not needed.
        const std::string report = renderSweepReport(sr);
        it.wallS = secondsBetween(t0, Clock::now());
        return it;
    }

    Iteration runTraced(SpanRecorder &rec) override
    {
        Counters c;
        const auto t0 = Clock::now();
        SweepRunResult sr;
        sr.spec = spec_;
        sr.experiments = timed(rec, c, "sweep.expand_s", -1,
                               [&] { return expandSweep(spec_); });
        Iteration it =
            runSuiteTraced(suiteOf(sr.experiments), techs_,
                           optionsFor(slotCount(), ""), rec, &sr.results);
        const std::string report = timed(rec, c, "sweep.report_s", -1,
                                         [&] { return renderSweepReport(sr); });
        it.wallS = secondsBetween(t0, Clock::now());
        perfbench::accumulate(it.layers, c);
        return it;
    }

  private:
    static std::vector<SuiteExperiment>
    suiteOf(const std::vector<SweepExperiment> &exps)
    {
        std::vector<SuiteExperiment> suite;
        for (const SweepExperiment &e : exps) {
            const workloads::KernelSpec k = e.spec;
            suite.push_back(SuiteExperiment{
                e.name, [k] { return workloads::generateKernel(k); }, e.cfg});
        }
        return suite;
    }

    SweepSpec spec_;
};

/**
 * One experiment alone with time-parallel simulation and pooled
 * replay; set-up computes the serial inline reference PICS.
 */
class SimparBench : public Bench
{
  public:
    // Simulation workers capture their intervals before the stitcher
    // feeds the replay pool, so both pools can match the slot count
    // without more runnable threads than cores in either phase.
    explicit SimparBench(bool smoke)
        : name_(smoke ? "nab" : "exchange2"),
          threads_(std::max(2u, slotCount()))
    {
    }

    const char *committedSet() const override { return "fig5"; }
    unsigned setupReps() const override { return 5; }

    std::vector<ExpOutcome> setup() override
    {
        ExperimentResult ref = runWorkload(workloads::byName(name_), techs_,
                                           optionsFor(1, ""));
        uops_ = ref.stats.committedUops;
        return {outcomeOf(ref)};
    }

    Iteration run() override
    {
        Iteration it;
        const auto t0 = Clock::now();
        ExperimentResult r;
        try {
            r = runWorkload(workloads::byName(name_), techs_, opts());
        } catch (const std::exception &e) {
            r.name = name_;
            r.error = e.what();
        }
        it.wallS = secondsBetween(t0, Clock::now());
        ExpOutcome o = outcomeOf(r);
        o.hasLatency = true;
        o.latencyS = it.wallS;
        it.exps.push_back(std::move(o));
        return it;
    }

    Iteration runTraced(SpanRecorder &rec) override
    {
        Iteration it;
        it.traced = true;
        const RunnerOptions o = opts();
        // simulateTimeParallel runs its checkpoint pre-pass internally;
        // this separate call with the same geometry times it.
        const Workload w = workloads::byName(name_);
        const std::uint64_t warmup = std::max<std::uint64_t>(
            1, o.sim.warmupUops);
        const std::uint64_t interval = std::max<std::uint64_t>(
            2 * warmup, (uops_ + threads_ - 1) / threads_);
        const CoreConfig cfg;
        timed(rec, it.layers, "parallel_sim.prepass_s", 0, [&] {
            return buildCheckpoints(w.program, w.initial, interval, warmup,
                                    1ULL << 33, &cfg);
        });
        const std::string name = name_;
        const SuiteExperiment exp{
            name, [name] { return workloads::byName(name); }, CoreConfig{}};
        const auto t0 = Clock::now();
        ExpOutcome out;
        try {
            TracedExperiment te =
                runTracedExperiment(exp, techs_, o, rec, 0);
            out = outcomeOf(te.result);
            perfbench::accumulate(it.layers, te.layers);
        } catch (const std::exception &e) {
            out.name = name_;
            out.error = e.what();
        }
        it.wallS = secondsBetween(t0, Clock::now());
        out.hasLatency = true;
        out.latencyS = it.wallS;
        it.exps.push_back(std::move(out));
        return it;
    }

  private:
    RunnerOptions opts() const
    {
        return optionsFor(threads_, "", threads_);
    }

    std::string name_;
    unsigned threads_;
    std::uint64_t uops_ = 0;
};

// ------------------------------------------------------------------
// Statistics and reporting.

/** Linear-interpolated percentile (q in [0, 1]) of @p v. */
double
percentile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double pos = q * static_cast<double>(v.size() - 1);
    const auto lo = static_cast<std::size_t>(pos);
    const std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

/**
 * Harrell-Davis estimate of quantile q (in (0, 1)) of @p v: the mean of
 * all order statistics, the i-th weighted by the Beta((n+1)q,
 * (n+1)(1-q)) mass of [(i-1)/n, i/n]. A single order statistic jumps
 * from one experiment's latency to another's when their ranks swap;
 * this estimate moves smoothly.
 */
double
harrellDavis(std::vector<double> v, double q)
{
    if (v.size() < 2)
        return percentile(std::move(v), q);
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    const double a = (n + 1.0) * q, b = (n + 1.0) * (1.0 - q);
    const double logBeta = std::lgamma(a) + std::lgamma(b) -
                           std::lgamma(a + b);
    auto density = [&](double x) {
        if (x <= 0.0 || x >= 1.0)
            return 0.0;
        return std::exp((a - 1.0) * std::log(x) +
                        (b - 1.0) * std::log1p(-x) - logBeta);
    };
    // Simpson's rule over each order statistic's interval.
    constexpr int steps = 32;
    const double h = 1.0 / (n * steps);
    double sum = 0.0, mass = 0.0;
    for (std::size_t i = 0; i < v.size(); ++i) {
        const double lo = static_cast<double>(i) / n;
        double w = density(lo) + density(lo + steps * h);
        for (int j = 1; j < steps; ++j)
            w += (j % 2 ? 4.0 : 2.0) * density(lo + j * h);
        sum += w * v[i];
        mass += w;
    }
    return sum / mass;
}

struct Summary
{
    double median = 0.0, q1 = 0.0, q3 = 0.0;
    std::size_t n = 0;
};

Summary
summarize(const std::vector<double> &v)
{
    return Summary{percentile(v, 0.5), percentile(v, 0.25),
                   percentile(v, 0.75), v.size()};
}

double
ratio(double num, double den)
{
    return den > 0.0 ? num / den : 0.0;
}

/** Peak resident set (VmHWM) of this process in MB. */
double
peakRssMb()
{
    std::ifstream in("/proc/self/status");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

struct Usage
{
    double cpuS = 0.0;
    long majorFaults = 0;
};

/** CPU time and major page faults of this process so far. */
Usage
usageNow()
{
    struct rusage ru{};
    ::getrusage(RUSAGE_SELF, &ru);
    auto sec = [](const timeval &tv) {
        return static_cast<double>(tv.tv_sec) +
               static_cast<double>(tv.tv_usec) * 1e-6;
    };
    return Usage{sec(ru.ru_utime) + sec(ru.ru_stime), ru.ru_majflt};
}

/**
 * Reset VmHWM to the current RSS, so each iteration's peak excludes
 * set-up and earlier iterations.
 */
void
resetPeakRss()
{
    std::ofstream out("/proc/self/clear_refs");
    out << "5";
}

std::string
jsonEscape(const std::string &s)
{
    std::string o;
    for (char ch : s) {
        if (ch == '"' || ch == '\\') {
            o += '\\';
            o += ch;
        } else if (static_cast<unsigned char>(ch) < 0x20) {
            o += ' ';
        } else {
            o += ch;
        }
    }
    return o;
}

std::string
cpuModel()
{
    std::ifstream in("/proc/cpuinfo");
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("model name", 0) == 0) {
            const auto colon = line.find(':');
            if (colon != std::string::npos)
                return line.substr(colon + 2);
        }
    }
    return "unknown";
}

void
printFingerprint()
{
    const std::string build = TEA_BENCH_BUILD_TYPE;
    std::printf("fingerprint {\"nproc\": %u, \"cpu\": \"%s\", "
                "\"varint_kernel\": \"%s\", \"compiler\": \"%s\", "
                "\"build_type\": \"%s\", \"release\": %s}\n",
                std::thread::hardware_concurrency(),
                jsonEscape(cpuModel()).c_str(),
                varintKernelName(activeVarintKernel()),
                jsonEscape(TEA_BENCH_COMPILER).c_str(), build.c_str(),
                build == "Release" ? "true" : "false");
    if (build != "Release")
        std::printf("warning: %s build, not Release; timings are not "
                    "comparable\n",
                    build.c_str());
}

/** Per-layer metric values of one traced iteration. */
std::map<std::string, double>
layerMetrics(const Counters &in)
{
    Counters c = in; // missing names read as 0
    std::map<std::string, double> m;
    for (const char *k :
         {"workloads.build_s", "sweep.expand_s", "sweep.report_s",
          "core.run_s", "core.cycles", "core.events",
          "trace_codec.encode_s", "trace_io.write_s",
          "trace_cache.store_s", "trace_codec.decode_s", "trace_io.map_s",
          "trace_cache.lookup_s", "profilers.golden_s",
          "parallel_runner.replay_busy_s.max",
          "parallel_runner.replay_busy_s.min",
          "parallel_runner.queue_full_stalls", "parallel_sim.prepass_s",
          "parallel_sim.run_s", "parallel_sim.intervals",
          "parallel_sim.retries", "parallel_sim.efficiency",
          "parallel_sim.warmup_cycles", "cache_janitor.gc_s"})
        m[k] = c[k];
    double observers = c["profilers.golden_s"];
    for (const SamplerConfig &t : standardTechniques()) {
        const std::string k = "profilers.sampler_s." + t.name;
        m[k] = c[k];
        observers += c[k];
    }
    m["core.mevents_per_s"] = ratio(c["core.events"], c["core.run_s"]) / 1e6;
    m["core.skip_ratio"] =
        ratio(c["core.skipped_cycles"],
              c["core.active_cycles"] + c["core.skipped_cycles"]);
    m["trace_codec.decode_mevents_per_s"] =
        ratio(c["trace_codec.decode_events"], c["trace_codec.decode_s"]) /
        1e6;
    m["trace_cache.hit_ratio"] =
        ratio(c["trace_cache.hits"], c["trace_cache.lookups"]);
    m["trace_codec.bytes_per_event"] =
        ratio(c["trace_codec.frame_bytes"], c["trace_codec.coded_events"]);
    m["trace_cache.bytes_per_event"] =
        ratio(c["trace_cache.entry_bytes"], c["trace_codec.coded_events"]);
    m["profilers.mevents_per_s"] =
        ratio(c["profilers.events"], observers) / 1e6;
    return m;
}

void
printSummaries(const std::map<std::string, Summary> &metrics)
{
    std::string line;
    for (const auto &[name, s] : metrics) {
        line += strprintf("%s\"%s\": {\"value\": %.17g, \"q1\": %.17g, "
                          "\"q3\": %.17g, \"n\": %zu}",
                          line.empty() ? "" : ", ", name.c_str(), s.median,
                          s.q1, s.q3, s.n);
    }
    std::printf("{%s}", line.c_str());
}

std::unique_ptr<Bench>
makeBench(const Args &a)
{
    std::unique_ptr<Bench> b;
    if (a.workload == "fig5-cold" || a.workload == "fig5-warm")
        b = std::make_unique<Fig5Bench>(a.workload == "fig5-warm", a.smoke,
                                        a.workDir + "/cache");
    else if (a.workload == "sweep-kgen")
        b = std::make_unique<SweepBench>(a.seed, a.smoke);
    else if (a.workload == "single-simpar")
        b = std::make_unique<SimparBench>(a.smoke);
    else
        usage(("unknown workload " + a.workload).c_str());
    b->committed = loadCommitted(a.referencePath, b->committedSet());
    return b;
}

int
runMain(const Args &a)
{
    fs::create_directories(a.workDir);
    printFingerprint();
    std::unique_ptr<Bench> bench = makeBench(a);

    std::uint64_t attempted = 0, failed = 0;
    std::vector<std::string> failures;
    auto mismatch = [](std::uint64_t got, std::uint64_t want,
                       const char *what) {
        return strprintf("PICS digest %016llx != %s %016llx",
                         static_cast<unsigned long long>(got), what,
                         static_cast<unsigned long long>(want));
    };
    // Set-up outcomes, and every outcome of a fixed-input workload, must
    // match the committed digests; every outcome must also match the
    // first digest the run saw for its experiment.
    auto check = [&](std::vector<ExpOutcome> &outcomes, bool inSetup) {
        for (ExpOutcome &o : outcomes) {
            // Self-test of the checks: one flipped bit must fail them.
            if (++attempted == 1 && a.corruptDigest)
                o.digest ^= 1;
            if (o.error.empty() && !inSetup)
                o.error = bench->expect(o);
            if (o.error.empty() && (inSetup || bench->fixedInputs())) {
                auto want = bench->committed.find(o.name);
                if (want == bench->committed.end())
                    o.error = strprintf(
                        "PICS digest %016llx has no committed reference",
                        static_cast<unsigned long long>(o.digest));
                else if (want->second != o.digest)
                    o.error = mismatch(o.digest, want->second, "committed");
            }
            if (o.error.empty()) {
                auto [ref, fresh] =
                    bench->reference.try_emplace(o.name, o.digest);
                if (!fresh && ref->second != o.digest)
                    o.error = mismatch(o.digest, ref->second, "reference");
            }
            if (!o.error.empty()) {
                ++failed;
                failures.push_back(o.name + ": " + o.error);
            }
        }
    };

    std::vector<double> setups;
    std::vector<ExpOutcome> setupOutcomes;
    for (unsigned r = 0; r < bench->setupReps(); ++r) {
        const auto t0 = Clock::now();
        setupOutcomes = bench->setup();
        setups.push_back(secondsBetween(t0, Clock::now()));
        check(setupOutcomes, true);
    }
    std::printf("inputs workload=%s seed=%llu fingerprint=%016llx\n",
                a.workload.c_str(), static_cast<unsigned long long>(a.seed),
                static_cast<unsigned long long>(bench->inputFingerprint));

    SpanRecorder rec(a.trace);
    std::vector<Iteration> plain, traced;
    const auto start = Clock::now();
    // Iterate while the next iteration is expected to end within half
    // an iteration of --seconds. Trace mode alternates untraced and
    // traced iterations and runs at least one of each.
    for (bool nextTraced = false;;) {
        bench->prepare();
        // Start each iteration from a trimmed heap, as a fresh process
        // would: memory the allocator kept from the previous iteration
        // otherwise makes the peak depend on which experiments shared
        // an arena.
        ::malloc_trim(0);
        resetPeakRss();
        const Usage u0 = usageNow();
        Iteration it = nextTraced ? bench->runTraced(rec) : bench->run();
        const Usage u1 = usageNow();
        it.peakRssMb = peakRssMb();
        check(it.exps, false);
        std::printf("iteration %zu %s wall %.4f s cpu %.4f s "
                    "major-faults %ld peak-rss %.1f MB\n",
                    plain.size() + traced.size() + 1,
                    it.traced ? "traced" : "untraced", it.wallS,
                    u1.cpuS - u0.cpuS, u1.majorFaults - u0.majorFaults,
                    it.peakRssMb);
        (nextTraced ? traced : plain).push_back(std::move(it));
        if (a.trace)
            nextTraced = !nextTraced;
        const bool enough = !plain.empty() && (!a.trace || !traced.empty());
        const double elapsed = secondsBetween(start, Clock::now());
        const double perIteration =
            elapsed / static_cast<double>(plain.size() + traced.size());
        if (enough && elapsed + perIteration / 2 > a.seconds)
            break;
    }
    if (a.trace) {
        const std::string path = strprintf(
            "%s/trace-%s-%llu.json", a.workDir.c_str(), a.workload.c_str(),
            static_cast<unsigned long long>(a.seed));
        if (rec.writeChromeTrace(path))
            std::printf("spans %zu written to %s\n", rec.size(),
                        path.c_str());
    }

    // The p50 pools the latencies of all untraced iterations, and is
    // their Harrell-Davis median: the plain median is one experiment's
    // latency, which depends on which experiments shared the cores with
    // it, and on a suite of 15 it sits between two experiments whose
    // latencies differ by a third. The p90 is taken per iteration and
    // then the median across iterations: pooled, it would move from one
    // experiment rank to another as the iteration count varies, and
    // with one experiment per iteration it would follow the slowest.
    std::map<std::string, Summary> metrics;
    std::vector<double> walls, latencies, p90s, minst, rss;
    for (const Iteration &it : plain) {
        walls.push_back(it.wallS);
        rss.push_back(it.peakRssMb);
        double insts = 0.0;
        std::vector<double> own;
        for (const ExpOutcome &o : it.exps) {
            insts += static_cast<double>(o.insts);
            if (o.hasLatency)
                own.push_back(o.latencyS);
        }
        p90s.push_back(percentile(own, 0.9));
        latencies.insert(latencies.end(), own.begin(), own.end());
        minst.push_back(insts / it.wallS / 1e6);
    }
    if (!a.trace) {
        metrics["setup_s"] = summarize(setups);
        metrics["wall_s"] = summarize(walls);
        metrics["exp_p50_s"] = summarize(latencies);
        metrics["exp_p50_s"].median = harrellDavis(latencies, 0.5);
        metrics["exp_p90_s"] = summarize(p90s);
        metrics["exp_p90_s"].n = latencies.size();
        metrics["minst_per_s"] = summarize(minst);
        metrics["peak_rss_mb"] = summarize(rss);
        metrics["ok_ratio"] = summarize({ratio(
            static_cast<double>(attempted - failed),
            static_cast<double>(attempted))});
        // Scored on inputs that do not depend on --seed: the first
        // iteration, or on sweep-kgen the fixed-seed probe of set-up.
        const std::vector<ExpOutcome> &scored =
            bench->fixedInputs() ? plain.front().exps : setupOutcomes;
        double err = 0.0;
        for (const ExpOutcome &o : scored)
            err += o.teaError;
        metrics["pics_error_tea_pct"] = summarize(
            {100.0 * err / static_cast<double>(scored.size())});
    } else {
        std::map<std::string, std::vector<double>> samples;
        for (const Iteration &it : traced) {
            for (const auto &[k, v] : layerMetrics(it.layers))
                samples[k].push_back(v);
        }
        for (const Iteration &it : plain) {
            for (const char *k : {"parallel_runner.slot_wait_s",
                                  "parallel_runner.tail_idle_s"}) {
                auto f = it.layers.find(k);
                samples[k].push_back(f == it.layers.end() ? 0.0 : f->second);
            }
        }
        for (auto &[k, v] : samples)
            metrics[k] = summarize(v);
        std::vector<double> tracedWalls;
        for (const Iteration &it : traced)
            tracedWalls.push_back(it.wallS);
        const double base = percentile(walls, 0.5);
        metrics["trace.overhead_pct"] = summarize(
            {100.0 * (percentile(tracedWalls, 0.5) - base) / base});
    }

    for (const std::string &f : failures)
        std::printf("FAILED %s\n", f.c_str());
    const bool correct = failed == 0;
    std::printf("result {\"correct\": %s, \"attempted\": %llu, "
                "\"failed\": %llu, \"iterations\": %zu, "
                "\"traced_iterations\": %zu, \"metrics\": ",
                correct ? "true" : "false",
                static_cast<unsigned long long>(attempted),
                static_cast<unsigned long long>(failed), plain.size(),
                traced.size());
    printSummaries(metrics);
    std::printf("}\n");
    std::fflush(stdout);
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args a = parseArgs(argc, argv);
    try {
        return runMain(a);
    } catch (const std::exception &e) {
        std::fprintf(stderr, "tea_perfbench: %s\n", e.what());
        return 1;
    }
}
