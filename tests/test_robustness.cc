/**
 * @file
 * Robustness / failure-injection tests: API misuse must fail loudly
 * (fatal for user errors, panic for internal invariants), never
 * silently corrupt results.
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>

#include "analysis/runner.hh"
#include "common/table.hh"
#include "core/cache.hh"
#include "isa/builder.hh"
#include "isa/memory.hh"
#include "profilers/sampler.hh"
#include "test_util.hh"
#include "workloads/workload.hh"

using namespace tea;
using namespace tea::test;

using RobustnessDeath = ::testing::Test;

TEST(RobustnessDeath, UnboundLabelIsFatal)
{
    ProgramBuilder b("t");
    Label never = b.label();
    b.jmp(never);
    b.halt();
    EXPECT_DEATH(b.build(), "unbound label");
}

TEST(RobustnessDeath, DoubleBindIsFatal)
{
    ProgramBuilder b("t");
    Label l = b.here();
    EXPECT_DEATH(b.bind(l), "bound twice");
}

TEST(RobustnessDeath, DoubleBuildIsFatal)
{
    ProgramBuilder b("t");
    b.halt();
    Program p = b.build();
    EXPECT_DEATH(b.build(), "build");
}

TEST(RobustnessDeath, NestedFunctionsAreFatal)
{
    ProgramBuilder b("t");
    b.beginFunction("outer");
    EXPECT_DEATH(b.beginFunction("inner"), "nested");
}

TEST(RobustnessDeath, UnterminatedFunctionIsFatal)
{
    ProgramBuilder b("t");
    b.beginFunction("open");
    b.halt();
    EXPECT_DEATH(b.build(), "unterminated");
}

TEST(RobustnessDeath, UnalignedMemoryAccessIsFatal)
{
    SparseMemory m;
    EXPECT_DEATH(m.read(0x1003), "unaligned");
    EXPECT_DEATH(m.write(0x1005, 1), "unaligned");
}

TEST(RobustnessDeath, NonPowerOfTwoCacheSetsAreFatal)
{
    CacheConfig cfg{3 * 1024, 4, 4, 2}; // 12 sets: not a power of two
    EXPECT_DEATH(CacheArray(cfg, "bad"), "power of two");
}

TEST(RobustnessDeath, ZeroSamplingPeriodIsFatal)
{
    EXPECT_DEATH(TechniqueSampler{teaConfig(0)}, "period");
}

TEST(RobustnessDeath, UnknownWorkloadIsFatal)
{
    EXPECT_EXIT(workloads::byName("specfp2000"),
                ::testing::ExitedWithCode(1), "unknown workload");
}

TEST(RobustnessDeath, TableDoubleHeaderIsFatal)
{
    Table t;
    t.header({"a"});
    EXPECT_DEATH(t.header({"b"}), "header");
}

TEST(RobustnessDeath, ProgramIndexOutOfRangeIsFatal)
{
    ProgramBuilder b("t");
    b.halt();
    Program p = b.build();
    EXPECT_DEATH(p.inst(5), "out of range");
}

TEST(Robustness, SimulationWithoutSinksWorks)
{
    CoreRun run = runCore(workloads::aluLoop(100));
    EXPECT_TRUE(run->halted());
}

TEST(Robustness, ManySinksDoNotPerturbTiming)
{
    Workload w1 = workloads::branchNoise(1500);
    Workload w2 = workloads::branchNoise(1500);
    CoreRun bare = runCore(std::move(w1));

    CoreRun loaded = makeCore(std::move(w2));
    std::vector<std::unique_ptr<TechniqueSampler>> samplers;
    for (int i = 0; i < 20; ++i) {
        samplers.push_back(std::make_unique<TechniqueSampler>(
            teaConfig(100 + static_cast<Cycle>(i))));
        loaded->addSink(samplers.back().get());
    }
    loaded->run();
    EXPECT_EQ(loaded->stats().cycles, bare->stats().cycles);
}

TEST(Robustness, RunBoundedByMaxCyclesAsserts)
{
    // An infinite loop must hit the max-cycle backstop (panic), not
    // hang.
    ProgramBuilder b("t");
    Label top = b.here();
    b.jmp(top);
    b.halt(); // unreachable
    Workload w{b.build(), ArchState{}, "infinite"};
    CoreRun run = makeCore(std::move(w));
    EXPECT_DEATH(run->run(10000), "did not halt");
}

TEST(Robustness, ZeroIterationWorkloadsTerminate)
{
    CoreRun run = runCore(workloads::aluLoop(1));
    EXPECT_TRUE(run->halted());
    EXPECT_GT(run->stats().committedUops, 0u);
}

/**
 * fromEnv() under NAME=VALUE must exit 1 naming the variable. The
 * variable is set in the death-test child only, and nothing but
 * fromEnv() runs there: a thread count that slipped through would
 * never reach the simulator.
 */
template <typename FromEnv>
void
expectEnvFatal(FromEnv from_env, const char *name, const char *value)
{
    SCOPED_TRACE(std::string(name) + "=" + value);
    EXPECT_EXIT(
        {
            ::setenv(name, value, 1);
            from_env();
        },
        ::testing::ExitedWithCode(1), name);
}

/** A sign, a blank, a suffix or plain garbage ("-1" must not wrap to
 *  the field's maximum). */
const char *const kBadNumbers[] = {"-1", "+1", " 1", "1x", "garbage"};

TEST(EnvKnobsDeath, RunnerOptionsRejectSignAndGarbage)
{
    for (const char *name :
         {"TEA_THREADS", "TEA_AUDIT", "TEA_CACHE_LOCK_TIMEOUT_MS"}) {
        for (const char *bad : kBadNumbers)
            expectEnvFatal([] { RunnerOptions::fromEnv(); }, name, bad);
        // One past the range of the unsigned field it fills.
        expectEnvFatal([] { RunnerOptions::fromEnv(); }, name,
                       "4294967296");
    }
}

TEST(EnvKnobsDeath, TimeParallelOptionsRejectSignAndGarbage)
{
    for (const char *bad : kBadNumbers) {
        expectEnvFatal([] { TimeParallelOptions::fromEnv(); },
                       "TEA_SIM_THREADS", bad);
        expectEnvFatal([] { TimeParallelOptions::fromEnv(); },
                       "TEA_SIM_WARMUP", bad);
    }
    expectEnvFatal([] { TimeParallelOptions::fromEnv(); },
                   "TEA_SIM_THREADS", "4294967296");
    expectEnvFatal([] { TimeParallelOptions::fromEnv(); },
                   "TEA_SIM_WARMUP", "18446744073709551616");
    // threads = 1 is the off switch; the mode knob only arms the oracle.
    for (const char *mode : {"off", "on", "0", "1"}) {
        SCOPED_TRACE(mode);
        EXPECT_EXIT(
            {
                ::setenv("TEA_SIM_PARALLEL", mode, 1);
                TimeParallelOptions::fromEnv();
            },
            ::testing::ExitedWithCode(1), "TEA_SIM_THREADS");
    }
}

TEST(EnvKnobsDeath, JanitorConfigRejectsSignAndGarbage)
{
    for (const char *name :
         {"TEA_TRACE_CACHE_MAX_BYTES", "TEA_CACHE_QUARANTINE_MAX",
          "TEA_CACHE_QUARANTINE_MAX_AGE_S", "TEA_CACHE_ORPHAN_MAX_AGE_S"}) {
        for (const char *bad : kBadNumbers)
            expectEnvFatal([] { JanitorConfig::fromEnv(); }, name, bad);
        expectEnvFatal([] { JanitorConfig::fromEnv(); }, name,
                       "18446744073709551616");
    }
}

TEST(EnvKnobsDeath, CoreFastPathTakesOnlyZeroOrOne)
{
    // Constructing a Core reads the knob; nothing is simulated.
    Workload w = workloads::aluLoop(1);
    const CoreConfig cfg;
    for (const char *bad : {"off", "2", "false", "-1", " 1"}) {
        expectEnvFatal([&] { Core core(cfg, w.program, w.initial); },
                       "TEA_CORE_FASTPATH", bad);
    }
    for (const char *good : {"0", "1"}) {
        ::setenv("TEA_CORE_FASTPATH", good, 1);
        Core core(cfg, w.program, w.initial);
        EXPECT_EQ(core.fastPath(), good[0] == '1');
    }
    ::unsetenv("TEA_CORE_FASTPATH");
    EXPECT_TRUE(Core(cfg, w.program, w.initial).fastPath());
}

TEST(EnvKnobs, AcceptPlainDecimalUpToFieldRange)
{
    ::setenv("TEA_CACHE_LOCK_TIMEOUT_MS", "4294967295", 1);
    ::setenv("TEA_TRACE_CACHE_MAX_BYTES", "18446744073709551615", 1);
    ::setenv("TEA_SIM_WARMUP", "007", 1);
    ::setenv("TEA_SIM_PARALLEL", "verify", 1);
    ::setenv("TEA_AUDIT", "", 1); // empty = unset
    const RunnerOptions opts = RunnerOptions::fromEnv();
    for (const char *name :
         {"TEA_CACHE_LOCK_TIMEOUT_MS", "TEA_TRACE_CACHE_MAX_BYTES",
          "TEA_SIM_WARMUP", "TEA_SIM_PARALLEL", "TEA_AUDIT"})
        ::unsetenv(name);
    EXPECT_EQ(opts.cacheLockTimeoutMs, 4294967295u);
    EXPECT_EQ(opts.janitor.maxBytes, 18446744073709551615ull);
    EXPECT_EQ(opts.sim.warmupUops, 7u);
    EXPECT_TRUE(opts.sim.verify);
    EXPECT_EQ(opts.audit, 0u);
}
