/**
 * @file
 * Time-parallel simulation suite (`ctest -L simpar`): bit-identity of
 * the stitched stream against the serial reference across workloads
 * and thread counts with the accept/retry decisions pinned, the
 * checkpoint restore-resume property under randomized interval
 * geometry, forced-fallback behavior when the warmup is too small to
 * converge, the TEA_SIM_PARALLEL=verify differential oracle, and the
 * failure paths of the worker/stitcher hand-off.
 *
 * Memory is part of the contract: the serial reference is kept as
 * codec frames and compared in lockstep, never flattened, and every
 * case asserts its process peak RSS stays under 1 GiB (each case runs
 * as its own ctest process).
 */

#include <chrono>
#include <cstdint>
#include <ostream>
#include <random>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include <sys/resource.h>

#include <gtest/gtest.h>

#include "analysis/parallel_sim.hh"
#include "analysis/runner.hh"
#include "common/failpoint.hh"
#include "core/checkpoint.hh"
#include "core/core.hh"
#include "core/trace_buffer.hh"
#include "core/trace_codec.hh"
#include "profilers/sampler.hh"
#include "workloads/workload.hh"

namespace tea {
namespace {

// Sanitizer shadow memory and quarantine inflate RSS far past what the
// code itself holds, so the bound is only asserted in plain builds.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
constexpr bool kRssBounded = false;
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
constexpr bool kRssBounded = false;
#else
constexpr bool kRssBounded = true;
#endif
#else
constexpr bool kRssBounded = true;
#endif

constexpr long kMaxRssKiB = 1024L * 1024L; // 1 GiB

/** Fixture base: every case ends by checking the process peak RSS. */
class BoundedRss : public ::testing::Test
{
  protected:
    void SetUp() override { failpoints::resetAll(); }

    void TearDown() override
    {
        failpoints::resetAll();
        if (!kRssBounded)
            return;
        struct rusage ru{};
        ASSERT_EQ(getrusage(RUSAGE_SELF, &ru), 0);
        EXPECT_LT(ru.ru_maxrss, kMaxRssKiB)
            << "peak RSS " << ru.ru_maxrss / 1024 << " MiB";
    }
};

/** The serial run, kept as codec frames (a few bytes per event). */
struct SerialReference
{
    std::vector<std::uint8_t> frames;
    std::uint64_t events = 0;
    CoreStats stats;
};

SerialReference
serialReference(const std::string &name)
{
    Workload w = workloads::byName(name);
    CoreConfig cfg;
    SerialReference ref;
    ChunkingSink sink(4096, [&ref](TraceChunkPtr chunk) {
        encodeChunk(*chunk, ref.frames);
    });
    Core core(cfg, w.program, std::move(w.initial));
    core.addSink(&sink);
    core.run();
    sink.finish();
    ref.events = sink.eventsCaptured();
    ref.stats = core.stats();
    return ref;
}

/**
 * Compares the stream it observes against a SerialReference in
 * lockstep, decoding one reference frame at a time, and remembers the
 * index of the first event that differs.
 */
class LockstepSink final : public TraceSink
{
  public:
    explicit LockstepSink(const SerialReference &ref) : ref_(ref) {}

    void onBatch(const TraceEvent *evs, std::size_t n) override
    {
        for (std::size_t i = 0; i < n; ++i)
            check(evs[i]);
    }

    void onEnd(Cycle final_cycle) override
    {
        TraceEvent ev;
        ev.kind = TraceEventKind::End;
        ev.p.end = final_cycle;
        check(ev);
    }

    std::uint64_t seen() const { return seen_; }

    /** The observed stream was the reference, event for event. */
    void expectIdentical() const
    {
        EXPECT_EQ(firstDiff_, kNone)
            << "streams diverge at event " << firstDiff_;
        EXPECT_EQ(seen_, ref_.events);
    }

  private:
    static constexpr std::uint64_t kNone = ~std::uint64_t(0);

    void check(const TraceEvent &ev)
    {
        const std::uint64_t i = seen_++;
        if (firstDiff_ != kNone)
            return;
        if (pos_ == chunk_.events.size()) {
            std::size_t used = 0;
            std::string why;
            if (offset_ >= ref_.frames.size() ||
                !decoder_.decode(ref_.frames.data() + offset_,
                                 ref_.frames.size() - offset_, chunk_,
                                 &used, &why)) {
                firstDiff_ = i; // longer than the reference
                return;
            }
            offset_ += used;
            pos_ = 0;
        }
        if (!eventsEquivalent(chunk_.events[pos_++], ev))
            firstDiff_ = i;
    }

    const SerialReference &ref_;
    ChunkDecoder decoder_;
    TraceChunk chunk_;
    std::size_t offset_ = 0;
    std::size_t pos_ = 0;
    std::uint64_t seen_ = 0;
    std::uint64_t firstDiff_ = kNone;
};

/** Counts the events it observes, End included. */
class CountingSink final : public TraceSink
{
  public:
    void onBatch(const TraceEvent *, std::size_t n) override { events += n; }
    void onEnd(Cycle) override { ++events; }
    std::uint64_t events = 0;
};

/** One time-parallel run of @p name into @p sinks. */
TimeParallelStats
parallelRun(const std::string &name, const TimeParallelOptions &opts,
            const std::vector<TraceSink *> &sinks,
            CoreStats *stats_out = nullptr, SimPerf *perf_out = nullptr)
{
    Workload w = workloads::byName(name);
    CoreConfig cfg;
    CoreStats st;
    SimPerf pf;
    TimeParallelStats tp = simulateTimeParallel(cfg, w.program,
                                                std::move(w.initial),
                                                opts, sinks, &st, &pf);
    if (stats_out)
        *stats_out = st;
    if (perf_out)
        *perf_out = pf;
    return tp;
}

TimeParallelOptions
parallelOptions(unsigned threads)
{
    TimeParallelOptions opts;
    opts.threads = threads;
    return opts;
}

struct SimparCase
{
    const char *workload;
    unsigned threads;
};

// Printed as written in the case list: the raw bytes gtest prints by
// default hold a pointer and padding, so test names varied per build.
void
PrintTo(const SimparCase &c, std::ostream *os)
{
    *os << "{\"" << c.workload << "\", " << c.threads << '}';
}

/**
 * The accept/retry decisions of each case, recorded from the engine
 * that retained 8x the largest warmup span of accepted stream: the
 * tail window sized by the successor's warmup must see the same
 * overlap and reach the same decisions.
 */
struct Decisions
{
    std::uint64_t intervals;
    std::uint64_t retries;
    std::uint64_t warmupCycles;
    double efficiency;
};

Decisions
pinnedDecisions(const SimparCase &c)
{
    const std::string w = c.workload;
    if (w == "exchange2" && c.threads == 2)
        return {2, 0, 18633, 1.0};
    if (w == "exchange2" && c.threads == 4)
        return {4, 0, 55436, 1.0};
    if (w == "fotonik3d")
        return {4, 1, 183321, 0.93944629959676484};
    if (w == "mcf")
        return {4, 0, 138521, 1.0};
    if (w == "xz")
        return {4, 3, 48223, 0.27699867686494822};
    throw std::logic_error("no pinned decisions for " + w);
}

class BitIdentity : public BoundedRss,
                    public ::testing::WithParamInterface<SimparCase>
{
};

/**
 * The tentpole contract: the stitched stream is bit-identical to the
 * serial run whether intervals converge (exchange2, mcf: zero
 * retries), partially converge (fotonik3d: tail intervals retried), or
 * never converge (xz at these interval sizes: full serial fallback).
 */
TEST_P(BitIdentity, StitchedStreamMatchesSerial)
{
    const SimparCase &c = GetParam();
    const SerialReference serial = serialReference(c.workload);

    LockstepSink cmp(serial);
    CoreStats stitched;
    SimPerf perf;
    const TimeParallelStats tp = parallelRun(
        c.workload, parallelOptions(c.threads), {&cmp}, &stitched, &perf);

    const Decisions pin = pinnedDecisions(c);
    EXPECT_TRUE(tp.usedParallel);
    EXPECT_EQ(tp.intervals, pin.intervals);
    EXPECT_EQ(tp.convergenceRetries, pin.retries);
    EXPECT_EQ(tp.warmupCycles, pin.warmupCycles);
    EXPECT_EQ(tp.parallelEfficiency, pin.efficiency); // exact
    EXPECT_EQ(serial.stats.cycles, stitched.cycles);
    EXPECT_EQ(serial.stats.committedUops, stitched.committedUops);
    EXPECT_EQ(serial.stats.eventCounts, stitched.eventCounts);
    EXPECT_EQ(perf.traceEvents, serial.events);
    cmp.expectIdentical();

    // The memory bound, independent of the machine: codec frames plus
    // one warmup leg per worker plus the tail window, never a
    // per-event copy of the run.
    EXPECT_GT(tp.peakBufferedBytes, 0u);
    if (std::string(c.workload) == "exchange2" && c.threads == 4) {
        EXPECT_LE(tp.peakBufferedBytes, 16 * perf.traceEvents)
            << tp.peakBufferedBytes << " bytes buffered for "
            << perf.traceEvents << " events";
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, BitIdentity,
    ::testing::Values(SimparCase{"exchange2", 2}, SimparCase{"exchange2", 4},
                      SimparCase{"fotonik3d", 4}, SimparCase{"mcf", 4},
                      SimparCase{"xz", 4}),
    [](const ::testing::TestParamInfo<SimparCase> &info) {
        return std::string(info.param.workload) + "_t" +
               std::to_string(info.param.threads);
    });

/** Records the pc of every retiring micro-op. */
class RetirePcSink final : public TraceSink
{
  public:
    void onRetire(const RetireRecord &rec) override { pcs.push_back(rec.pc); }
    std::vector<std::uint32_t> pcs;
};

class CheckpointResume : public BoundedRss
{
};

/**
 * Restore-resume property under randomized geometry: a Core resumed
 * from any checkpoint (materialized memory image, register file,
 * resume pc) must retire exactly the serial run's committed-uop suffix
 * — same pcs, same count — regardless of interval/warmup choice.
 * Timing is allowed to differ (cold caches); architecture is not.
 */
TEST_F(CheckpointResume, RandomGeometryRetiresSerialSuffix)
{
    Workload ref = workloads::byName("xz");
    CoreConfig cfg;

    // Serial retire-pc sequence, indexed by committed-uop number.
    std::vector<std::uint32_t> serialPcs;
    {
        Workload w = workloads::byName("xz");
        RetirePcSink sink;
        Core core(cfg, w.program, std::move(w.initial));
        core.addSink(&sink);
        core.run();
        serialPcs = std::move(sink.pcs);
    }
    ASSERT_FALSE(serialPcs.empty());

    std::mt19937 rng(0x7ea5eed);
    for (int iter = 0; iter < 6; ++iter) {
        const std::uint64_t interval = std::uniform_int_distribution<
            std::uint64_t>(4000, 40000)(rng);
        const std::uint64_t warmup = std::uniform_int_distribution<
            std::uint64_t>(500, interval / 2)(rng);
        CheckpointPlan plan = buildCheckpoints(ref.program, ref.initial,
                                               interval, warmup,
                                               1ULL << 33, &cfg);
        ASSERT_TRUE(plan.halted);
        ASSERT_EQ(plan.totalUops, serialPcs.size());
        if (plan.checkpoints.empty())
            continue; // run shorter than one interval at this geometry
        const std::size_t pick = std::uniform_int_distribution<
            std::size_t>(0, plan.checkpoints.size() - 1)(rng);
        const ArchCheckpoint &ck = plan.checkpoints[pick];
        EXPECT_EQ(ck.uops, (pick + 1) * interval - warmup);

        ArchState resumed = materializeState(ref.initial, plan, ck);
        RetirePcSink sink;
        Core core(cfg, ref.program, std::move(resumed), ck.pc, ck.uops,
                  ck.predictor.get());
        core.addSink(&sink);
        core.run();

        const std::vector<std::uint32_t> &resumedPcs = sink.pcs;
        ASSERT_EQ(resumedPcs.size(), serialPcs.size() - ck.uops)
            << "interval=" << interval << " warmup=" << warmup
            << " checkpoint=" << pick;
        for (std::size_t i = 0; i < resumedPcs.size(); ++i)
            ASSERT_EQ(resumedPcs[i], serialPcs[ck.uops + i])
                << "retire " << i << " after checkpoint " << pick;
    }
}

class Fallback : public BoundedRss
{
};

/**
 * A warmup far too small to converge must degrade to serial retries —
 * never to a wrong stream. This pins the failure path: the exact
 * retries and efficiency, output still bit-identical.
 */
TEST_F(Fallback, TinyWarmupRetriesAndStaysIdentical)
{
    const SerialReference serial = serialReference("mcf");

    TimeParallelOptions opts = parallelOptions(4);
    opts.warmupUops = 256;
    LockstepSink cmp(serial);
    const TimeParallelStats tp = parallelRun("mcf", opts, {&cmp});

    EXPECT_TRUE(tp.usedParallel);
    EXPECT_EQ(tp.intervals, 4u);
    EXPECT_EQ(tp.convergenceRetries, 3u);
    EXPECT_EQ(tp.warmupCycles, 2209u);
    EXPECT_EQ(tp.parallelEfficiency, 0.31363052298127064); // exact
    cmp.expectIdentical();
}

/** The serial opt-out: threads=1 takes the plain path and reports so. */
TEST_F(Fallback, SerialModesReportSerial)
{
    CountingSink count;
    EXPECT_FALSE(
        parallelRun("exchange2", parallelOptions(1), {&count}).usedParallel);
}

class VerifyMode : public BoundedRss
{
};

/**
 * The differential oracle (TEA_SIM_PARALLEL=verify) re-runs serially
 * inside simulateTimeParallel and fatals on any divergence — surviving
 * the call is the assertion.
 */
TEST_F(VerifyMode, OraclePasses)
{
    TimeParallelOptions opts = parallelOptions(3);
    opts.verify = true;
    CountingSink count;
    SimPerf perf;
    const TimeParallelStats tp =
        parallelRun("exchange2", opts, {&count}, nullptr, &perf);
    EXPECT_TRUE(tp.usedParallel);
    EXPECT_GT(count.events, 0u);
    EXPECT_EQ(count.events, perf.traceEvents);
}

/**
 * TEA_AUDIT=2 cross-checks a time-parallel simulation against a fully
 * serial run even when the observers run inline (threads = 1). The
 * check fatals on any Pics difference, so surviving the call is the
 * assertion.
 */
TEST_F(VerifyMode, AuditCrossChecksInlineTimeParallelRun)
{
    RunnerOptions o;
    o.threads = 1;
    o.audit = 2;
    o.sim = parallelOptions(2);
    const ExperimentResult res = runWorkload(workloads::byName("exchange2"),
                                             standardTechniques(), o);
    EXPECT_FALSE(res.failed());
    EXPECT_TRUE(res.replay.simParallel);
}

/** Failure paths of the worker/stitcher hand-off. */
class HandoffFault : public BoundedRss
{
  protected:
    void SetUp() override
    {
        if (!failpoints::compiledIn())
            GTEST_SKIP() << "failpoint seams compiled out";
        BoundedRss::SetUp();
    }

    /** A pooled runner doing time-parallel simulation on 4 workers. */
    static RunnerOptions pooled()
    {
        RunnerOptions o;
        o.threads = 2;
        o.sim = parallelOptions(4);
        return o;
    }

    static ExperimentResult runMcf()
    {
        return runWorkload(workloads::byName("mcf"), {teaConfig()},
                           pooled());
    }
};

/**
 * sim.worker hits are counted in interval order, so nth:2 faults
 * interval 1 after its warmup leg: the stitcher redoes it serially on
 * the parked interval-0 core and the stream stays bit-identical.
 */
TEST_F(HandoffFault, WorkerFaultAfterIntervalZeroRetriesSerially)
{
    const SerialReference serial = serialReference("mcf");
    failpoints::configure("sim.worker", "nth:2");
    LockstepSink cmp(serial);
    const TimeParallelStats tp = parallelRun("mcf", parallelOptions(4), {&cmp});
    EXPECT_EQ(failpoints::find("sim.worker")->fired(), 1u);
    EXPECT_TRUE(tp.usedParallel);
    EXPECT_EQ(tp.convergenceRetries, 1u); // 0 without the fault
    EXPECT_LT(tp.parallelEfficiency, 1.0);
    cmp.expectIdentical();
}

/** The same recovery end to end, through runWorkload and its pool. */
TEST_F(HandoffFault, WorkerFaultRecoversThroughRunWorkload)
{
    failpoints::configure("sim.worker", "nth:3");
    const ExperimentResult res = runMcf();
    EXPECT_FALSE(res.failed());
    EXPECT_TRUE(res.replay.simParallel);
    EXPECT_EQ(res.replay.simConvergenceRetries, 1u);
    EXPECT_GT(res.replay.simPeakBufferedBytes, 0u);
    EXPECT_NE(res.replay.renderLine().find("MB peak"), std::string::npos);
}

/**
 * Interval 0 streams to the sinks as it simulates, so there is no
 * parked core to redo it on: a fault there fails the experiment with a
 * contained exception, after every worker is joined.
 */
TEST_F(HandoffFault, IntervalZeroFaultIsAContainedException)
{
    failpoints::configure("sim.worker", "nth:1");
    EXPECT_THROW(runMcf(), std::exception);
    failpoints::resetAll();
    EXPECT_FALSE(runMcf().failed()); // the process is healthy
}

/** A stitcher fault while interval 0 streams, and one while it drains
 *  a later interval's frames, both come out as exceptions. */
TEST_F(HandoffFault, StitcherFaultIsAContainedException)
{
    for (const char *spec : {"nth:1", "nth:600"}) {
        SCOPED_TRACE(spec);
        failpoints::configure("sim.stitch", spec);
        EXPECT_THROW(runMcf(), FailpointError);
        EXPECT_EQ(failpoints::find("sim.stitch")->fired(), 1u);
        failpoints::resetAll();
    }
}

/** A sink that stalls, so interval 0 fills its hand-off, then throws. */
class StallThenThrowSink final : public TraceSink
{
  public:
    void onBatch(const TraceEvent *, std::size_t) override
    {
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
        throw std::runtime_error("observer failed");
    }
};

/**
 * An observer exception while interval 0's worker is blocked on a full
 * hand-off must wake it: the call returns the exception instead of
 * hanging until the test timeout.
 */
TEST_F(HandoffFault, ObserverFailureWakesBlockedWorker)
{
    StallThenThrowSink sink;
    EXPECT_THROW(parallelRun("mcf", parallelOptions(4), {&sink}),
                 std::runtime_error);
}

} // namespace
} // namespace tea
