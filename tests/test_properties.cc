/**
 * @file
 * Property-style tests (parameterized sweeps) over the core invariants:
 * golden coverage, error-metric laws, sampling convergence and
 * functional correctness across configuration and workload sweeps.
 */

#include <ostream>

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "profilers/golden.hh"
#include "profilers/sampler.hh"
#include "test_util.hh"

using namespace tea;
using namespace tea::test;

// --- golden coverage across workloads --------------------------------

class GoldenCoverage : public ::testing::TestWithParam<std::string>
{
};

TEST_P(GoldenCoverage, EveryCycleAttributed)
{
    CoreRun run = makeCore(workloads::byName(GetParam()));
    GoldenReference golden;
    run->addSink(&golden);
    run->run();
    double covered = golden.pics().total() + golden.droppedCycles();
    // 1/n compute splits accumulate tiny FP rounding.
    EXPECT_NEAR(covered, static_cast<double>(run->stats().cycles), 1.0);
    EXPECT_LT(golden.droppedCycles(), 32.0);
}

INSTANTIATE_TEST_SUITE_P(
    AllBenchmarks, GoldenCoverage,
    ::testing::ValuesIn(workloads::suiteNames()),
    [](const ::testing::TestParamInfo<std::string> &info) {
        return info.param;
    });

// --- functional correctness across core configurations ----------------

struct ConfigCase
{
    const char *name;
    unsigned rob;
    unsigned fetch_buffer;
    unsigned sq;
    unsigned mem_iq;
};

// gtest would otherwise print the raw bytes of the case, name pointer
// and padding included, into the test name, which then changes from
// one build to the next.
void
PrintTo(const ConfigCase &c, std::ostream *os)
{
    *os << '"' << c.name << '"';
}

class ConfigSweep : public ::testing::TestWithParam<ConfigCase>
{
};

TEST_P(ConfigSweep, TimingNeverChangesArchitecturalState)
{
    const ConfigCase &c = GetParam();
    CoreConfig cfg;
    cfg.robEntries = c.rob;
    cfg.fetchBufferEntries = c.fetch_buffer;
    cfg.sqEntries = c.sq;
    cfg.memIqEntries = c.mem_iq;

    Workload w = workloads::xz();
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w), cfg);
    EXPECT_TRUE(run->halted());
    for (unsigned r = 0; r < numArchRegs; ++r)
        EXPECT_EQ(run->archState().regs[r], oracle.regs[r])
            << c.name << " reg " << r;
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ConfigSweep,
    ::testing::Values(ConfigCase{"baseline", 192, 48, 24, 48},
                      ConfigCase{"tiny_rob", 16, 48, 24, 48},
                      ConfigCase{"tiny_fb", 192, 8, 24, 48},
                      ConfigCase{"tiny_sq", 192, 48, 4, 48},
                      ConfigCase{"tiny_iq", 192, 48, 24, 4},
                      ConfigCase{"narrow", 64, 16, 8, 16}),
    [](const ::testing::TestParamInfo<ConfigCase> &info) {
        return info.param.name;
    });

// --- sampling-period properties ---------------------------------------

class PeriodSweep : public ::testing::TestWithParam<Cycle>
{
};

TEST_P(PeriodSweep, SampleBudgetAndWeights)
{
    Cycle period = GetParam();
    CoreRun run = makeCore(workloads::byName("exchange2"));
    TechniqueSampler tea{teaConfig(period)};
    TechniqueSampler ibs{ibsConfig(period)};
    run->addSink(&tea);
    run->addSink(&ibs);
    run->run();

    Cycle cycles = run->stats().cycles;
    std::uint64_t fired = (cycles + period - 1) / period;
    // Every fired sample is taken, dropped, or still pending at the end
    // (pending-at-end is folded into exactly one dropped count).
    EXPECT_LE(tea.samplesTaken(), fired);
    EXPECT_LE(ibs.samplesTaken() + ibs.samplesDropped(), fired);
    // Attributed cycles never exceed the sample budget.
    EXPECT_LE(tea.pics().total(),
              static_cast<double>(fired) * static_cast<double>(period) +
                  1e-6);
}

TEST_P(PeriodSweep, TeaStaysTimeProportional)
{
    Cycle period = GetParam();
    CoreRun run = makeCore(workloads::byName("fotonik3d"));
    GoldenReference golden;
    TechniqueSampler tea{teaConfig(period)};
    run->addSink(&golden);
    run->addSink(&tea);
    run->run();
    double err = tea.pics().errorAgainst(golden.pics());
    // Even at the coarsest period the time-proportional policy keeps
    // the error far below the front-end taggers' bias (>40%).
    EXPECT_LT(err, 0.30) << "period " << period;
}

INSTANTIATE_TEST_SUITE_P(Periods, PeriodSweep,
                         ::testing::Values<Cycle>(31, 127, 509, 2048));

// --- error-metric laws over randomized stacks --------------------------

class ErrorMetricLaws : public ::testing::TestWithParam<std::uint64_t>
{
};

TEST_P(ErrorMetricLaws, BoundsIdentityAndMaskingMonotonicity)
{
    Rng rng(GetParam());
    Pics golden;
    Pics sampled;
    for (int i = 0; i < 200; ++i) {
        auto pc = static_cast<InstIndex>(rng.below(40));
        Psv sig(static_cast<std::uint16_t>(rng.below(512)));
        golden.add(pc, sig, 1.0 + static_cast<double>(rng.below(100)));
        if (rng.chance(0.8)) {
            sampled.add(pc, sig,
                        1.0 + static_cast<double>(rng.below(100)));
        }
    }
    // Identity.
    EXPECT_NEAR(golden.errorAgainst(golden), 0.0, 1e-12);
    // Bounds.
    double e = sampled.errorAgainst(golden);
    EXPECT_GE(e, 0.0);
    EXPECT_LE(e, 1.0);
    // Projecting BOTH stacks to a coarser event set merges components
    // and can only reduce (or keep) the error.
    std::uint16_t mask = speEventSet().mask;
    double masked_e = sampled.masked(mask).errorAgainst(
        golden.masked(mask));
    EXPECT_LE(masked_e, e + 1e-9);
    // Totals are preserved by masking.
    EXPECT_NEAR(golden.masked(mask).total(), golden.total(), 1e-9);
}

INSTANTIATE_TEST_SUITE_P(Seeds, ErrorMetricLaws,
                         ::testing::Values<std::uint64_t>(1, 2, 3, 5, 8,
                                                          13, 21, 34));

// --- microkernel functional sweep --------------------------------------

class ChaseSweep
    : public ::testing::TestWithParam<std::tuple<unsigned, std::uint64_t>>
{
};

TEST_P(ChaseSweep, FunctionalAndTerminates)
{
    auto [nodes, spacing] = GetParam();
    Workload w = workloads::pointerChase(nodes, 2, spacing);
    ArchState oracle = runFunctional(w.program, w.initial);
    CoreRun run = runCore(std::move(w));
    EXPECT_TRUE(run->halted());
    EXPECT_EQ(run->archState().regs[x(5)], oracle.regs[x(5)]);
    EXPECT_EQ(run->stats().committedUops,
              static_cast<std::uint64_t>(nodes) * 2 * 3 + 4);
}

INSTANTIATE_TEST_SUITE_P(
    Shapes, ChaseSweep,
    ::testing::Combine(::testing::Values(16u, 256u, 1024u),
                       ::testing::Values<std::uint64_t>(64, 320, 4160)));
