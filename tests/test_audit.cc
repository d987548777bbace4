/**
 * @file
 * Tests for the TEA invariant auditor (analysis/audit): a clean trace —
 * live or replayed — must audit clean, and every seeded violation must
 * be detected with a diagnostic naming the offending cycle or sequence
 * number.
 */

#include <gtest/gtest.h>
#include <string>
#include <vector>

#include "analysis/audit.hh"
#include "analysis/runner.hh"
#include "profilers/golden.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

namespace {

/** An auditor that records instead of aborting. */
InvariantAuditor
collector()
{
    return InvariantAuditor(InvariantAuditor::Mode::Collect);
}

/** Fetch+dispatch+retire+cycle for one uop committing at @p cycle. */
void
emitComputeCycle(InvariantAuditor &a, Cycle cycle, SeqNum seq,
                 InstIndex pc)
{
    a.onFetch(UopRecord{seq, pc, cycle});
    a.onDispatch(UopRecord{seq, pc, cycle});
    a.onRetire(RetireRecord{seq, pc, Psv{}, cycle});
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{seq, pc, Psv{}};
    rec.lastValid = true;
    rec.lastPc = pc;
    rec.lastPsv = Psv{};
    a.onCycle(rec);
}

/** A commit-less cycle record in state @p state at @p cycle. */
CycleRecord
idleCycle(Cycle cycle, CommitState state)
{
    CycleRecord rec;
    rec.cycle = cycle;
    rec.state = state;
    return rec;
}

/** True when some violation mentions every @p needles substring. */
bool
violationNaming(const InvariantAuditor &a,
                const std::vector<std::string> &needles)
{
    for (const std::string &v : a.violations()) {
        bool all = true;
        for (const std::string &n : needles) {
            if (v.find(n) == std::string::npos) {
                all = false;
                break;
            }
        }
        if (all)
            return true;
    }
    return false;
}

} // namespace

TEST(Audit, CleanSyntheticTracePasses)
{
    InvariantAuditor a = collector();
    emitComputeCycle(a, 0, 1, 5);
    CycleRecord drained = idleCycle(1, CommitState::Drained);
    drained.lastValid = true;
    drained.lastPc = 5;
    a.onCycle(drained);
    a.onEnd(2);
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), 2u);
    EXPECT_EQ(a.eventsAudited(), 6u);
}

TEST(Audit, DetectsDroppedCycle)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onCycle(idleCycle(2, CommitState::Drained)); // cycle 1 dropped
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-contiguous", "cycle 2",
                                    "cycle 0"}))
        << a.violations().front();
}

TEST(Audit, DetectsDuplicatedCycle)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onCycle(idleCycle(0, CommitState::Drained));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-contiguous", "cycle 0"}));
}

TEST(Audit, DetectsIllegalCommitState)
{
    InvariantAuditor a = collector();
    CycleRecord rec = idleCycle(0, static_cast<CommitState>(9));
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"illegal commit state 9",
                                    "cycle 0"}));
}

TEST(Audit, DetectsIllegalPsvBit)
{
    InvariantAuditor a = collector();
    // Bit 12 is beyond the paper's nine architectural events.
    a.onRetire(RetireRecord{1, 5, Psv(std::uint16_t{1u << 12}), 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"illegal PSV bits", "seq 1"}))
        << a.violations().front();
}

TEST(Audit, DetectsNonMonotonicRetireSeq)
{
    InvariantAuditor a = collector();
    a.onRetire(RetireRecord{5, 1, Psv{}, 0});
    a.onRetire(RetireRecord{3, 2, Psv{}, 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic retire seq 3",
                                    "previous 5"}));
}

TEST(Audit, DetectsNonMonotonicDispatchSeq)
{
    InvariantAuditor a = collector();
    a.onDispatch(UopRecord{7, 1, 0});
    a.onDispatch(UopRecord{7, 1, 0});
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"non-monotonic dispatch seq 7"}));
}

TEST(Audit, DetectsCommitBeforeDispatch)
{
    InvariantAuditor a = collector();
    a.onFetch(UopRecord{1, 5, 0});
    a.onDispatch(UopRecord{1, 5, 0});
    // Seq 2 retires without ever dispatching.
    a.onRetire(RetireRecord{2, 6, Psv{}, 0});
    CycleRecord rec;
    rec.cycle = 0;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{2, 6, Psv{}};
    rec.lastValid = true;
    rec.lastPc = 6;
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"seq 2", "never dispatched"}));
}

TEST(Audit, DetectsRetireCommitMismatch)
{
    InvariantAuditor a = collector();
    // A Compute cycle claims one committed uop, but no retire event was
    // delivered for it: the streams diverged.
    CycleRecord rec;
    rec.cycle = 0;
    rec.state = CommitState::Compute;
    rec.numCommitted = 1;
    rec.committed[0] = CommittedUop{1, 5, Psv{}};
    rec.lastValid = true;
    rec.lastPc = 5;
    a.onCycle(rec);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"cycle 0", "committed 1 uops",
                                    "0 retire events"}));
}

TEST(Audit, DetectsStalledWithoutHead)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Stalled));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"Stalled cycle 0",
                                    "valid ROB head"}));
}

TEST(Audit, DetectsBackwardsRobHead)
{
    InvariantAuditor a = collector();
    CycleRecord s0 = idleCycle(0, CommitState::Stalled);
    s0.headValid = true;
    s0.headSeq = 10;
    s0.headPc = 1;
    a.onCycle(s0);
    CycleRecord s1 = idleCycle(1, CommitState::Stalled);
    s1.headValid = true;
    s1.headSeq = 7; // older than the previous head
    s1.headPc = 1;
    a.onCycle(s1);
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"ROB head moved backwards",
                                    "cycle 1", "seq 7", "seq 10"}));
}

TEST(Audit, DetectsEndMarkerDisagreement)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onEnd(5); // one cycle record delivered, so the end must carry 1
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"end marker cycle 5"}));
}

TEST(Audit, DetectsEventsAfterEnd)
{
    InvariantAuditor a = collector();
    a.onCycle(idleCycle(0, CommitState::Drained));
    a.onEnd(1);
    a.onCycle(idleCycle(1, CommitState::Drained));
    ASSERT_FALSE(a.clean());
    EXPECT_TRUE(violationNaming(a, {"after the end marker"}));
}

TEST(Audit, CleanOnLiveCoreTrace)
{
    // The real core must satisfy every invariant the auditor enforces —
    // on a workload exercising stalls, flushes and multi-commit cycles.
    InvariantAuditor a = collector();
    CoreRun run = makeCore(workloads::branchNoise(2000));
    run->addSink(&a);
    run->run();
    a.finish();
    EXPECT_TRUE(a.clean()) << a.violations().front();
    EXPECT_EQ(a.cyclesAudited(), run->stats().cycles);
}

TEST(Audit, GoldenConservesCyclesOnLiveTrace)
{
    GoldenReference golden;
    CoreRun run = makeCore(workloads::pointerChase(64, 50, 4096));
    run->addSink(&golden);
    run->run();
    EXPECT_EQ(auditCycleConservation(golden, run->stats().cycles),
              std::string());
    // And the helper reports a broken law with the cycle arithmetic.
    std::string diag =
        auditCycleConservation(golden, run->stats().cycles + 3);
    EXPECT_NE(diag.find("cycle conservation violated"),
              std::string::npos)
        << diag;
}

TEST(Audit, PicsIdentityHelper)
{
    CoreRun a = runCore(workloads::aluLoop(500));
    GoldenReference ga;
    {
        CoreRun run = makeCore(workloads::aluLoop(500));
        run->addSink(&ga);
        run->run();
    }
    GoldenReference gb;
    {
        CoreRun run = makeCore(workloads::streamSum(64, 10));
        run->addSink(&gb);
        run->run();
    }
    EXPECT_EQ(auditPicsIdentical(ga.pics(), ga.pics()), std::string());
    std::string diag = auditPicsIdentical(ga.pics(), gb.pics());
    EXPECT_FALSE(diag.empty());
}

TEST(Audit, AuditedRunnerPassesSerial)
{
    RunnerOptions opts;
    opts.threads = 1;
    opts.audit = 1; // FailFast: a violation aborts the test binary
    ExperimentResult res = runWorkload(workloads::branchNoise(2000),
                                       standardTechniques(), opts);
    EXPECT_GT(res.stats.cycles, 0u);
    ASSERT_NE(res.golden, nullptr);
    EXPECT_EQ(auditCycleConservation(*res.golden, res.stats.cycles),
              std::string());
}

TEST(Audit, AuditedRunnerPassesParallel)
{
    RunnerOptions opts;
    opts.threads = 3;
    opts.audit = 1;
    ExperimentResult res = runWorkload(workloads::mcf(),
                                       standardTechniques(), opts);
    EXPECT_GT(res.stats.cycles, 0u);
    EXPECT_EQ(auditCycleConservation(*res.golden, res.stats.cycles),
              std::string());
}

TEST(Audit, CrossThreadDeterminismCheckPasses)
{
    // Level 2 re-runs the experiment serially and fatals unless the
    // trace digest, the CoreStats and every Pics are identical across
    // the two thread counts; returning at all means the determinism
    // contract held.
    RunnerOptions opts;
    opts.threads = 2;
    opts.audit = 2;
    ExperimentResult res = runWorkload(workloads::xz(),
                                       standardTechniques(), opts);
    EXPECT_GT(res.stats.cycles, 0u);
}

namespace {

/**
 * A hand-built stream: one uop fetched, dispatched and committed, a
 * Stalled cycle and a Drained one. With @p stale set, the bytes behind
 * every cleared validity flag hold garbage, as a core's reused working
 * buffer may: the Drained cycle's headSeq and the Compute cycle's
 * unused commit slots.
 */
std::vector<TraceEvent>
digestStream(bool stale)
{
    std::vector<TraceEvent> evs(6);
    evs[0].kind = TraceEventKind::Fetch;
    evs[0].p.uop = UopRecord{0, 1, 0};
    evs[1].kind = TraceEventKind::Dispatch;
    evs[1].p.uop = UopRecord{0, 1, 1};
    evs[2].kind = TraceEventKind::Retire;
    evs[2].p.retire = RetireRecord{0, 1, Psv{}, 2};
    evs[3].kind = TraceEventKind::Cycle;
    CycleRecord &commit = evs[3].p.cycle;
    commit = CycleRecord{};
    commit.cycle = 2;
    commit.state = CommitState::Compute;
    commit.numCommitted = 1;
    commit.committed[0] = CommittedUop{0, 1, Psv{}};
    commit.lastValid = true;
    commit.lastPc = 1;
    evs[4].kind = TraceEventKind::Cycle;
    CycleRecord &stall = evs[4].p.cycle;
    stall = idleCycle(3, CommitState::Stalled);
    stall.headValid = true;
    stall.headSeq = 1;
    stall.headPc = 2;
    stall.lastValid = true;
    stall.lastPc = 1;
    evs[5].kind = TraceEventKind::Cycle;
    CycleRecord &drain = evs[5].p.cycle;
    drain = idleCycle(4, CommitState::Drained);
    drain.lastValid = true;
    drain.lastPc = 1;
    if (stale) {
        drain.headSeq = 77;
        for (unsigned k = 1; k < commit.committed.size(); ++k)
            commit.committed[k] = CommittedUop{90 + k, 9, Psv{}};
    }
    return evs;
}

struct Digest
{
    std::uint64_t value, events, chunks;
    bool operator==(const Digest &) const = default;
};

/** Digest of @p evs delivered in batches of @p batch, then the end. */
Digest
digestOf(const std::vector<TraceEvent> &evs, std::size_t batch)
{
    FingerprintSink fp;
    for (std::size_t i = 0; i < evs.size(); i += batch)
        fp.sink()->onBatch(evs.data() + i, std::min(batch, evs.size() - i));
    fp.sink()->onEnd(5);
    const std::uint64_t value = fp.finishAndValue();
    return Digest{value, fp.events(), fp.chunks()};
}

} // namespace

TEST(TraceDigest, StaleInvalidSlotsHashEqual)
{
    const Digest clean = digestOf(digestStream(false), 6);
    EXPECT_EQ(clean.events, 7u);
    EXPECT_EQ(clean.chunks, 1u);
    EXPECT_EQ(digestOf(digestStream(true), 6), clean);
    // How the stream was batched is not part of it either.
    EXPECT_EQ(digestOf(digestStream(false), 1), clean);
}

TEST(TraceDigest, OneFetchCycleChangesTheHash)
{
    std::vector<TraceEvent> evs = digestStream(false);
    const Digest clean = digestOf(evs, 6);
    evs[0].p.uop.cycle += 1;
    const Digest moved = digestOf(evs, 6);
    EXPECT_NE(moved.value, clean.value);
    EXPECT_EQ(moved.events, clean.events);
}
