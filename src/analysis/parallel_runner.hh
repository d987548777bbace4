/**
 * @file
 * Parallel out-of-band trace replay engine.
 *
 * One simulation produces the cycle trace exactly once; the trace is
 * captured in chunks (core/trace_buffer) and broadcast through a bounded
 * SPMC queue (common/chunk_queue) to a pool of replay workers. Each
 * worker owns a disjoint subset of the observer groups (the golden
 * reference and one group per sampling technique) and replays every
 * chunk through them in capture order, so each observer sees the exact
 * event sequence a live run would have delivered — the determinism that
 * makes single-run, many-technique evaluation sound (TEA §4) — while
 * techniques are scored concurrently.
 *
 * This is the consumer behind runWorkload()/runBenchmark() when
 * RunnerOptions::threads > 1; replayChunksThroughPool is also the entry
 * point for callers that bring their own TraceSinks.
 */

#ifndef TEA_ANALYSIS_PARALLEL_RUNNER_HH
#define TEA_ANALYSIS_PARALLEL_RUNNER_HH

#include <functional>
#include <vector>

#include "analysis/runner.hh"
#include "common/stats.hh"
#include "core/trace_buffer.hh"

namespace tea {

/**
 * A group of TraceSinks that must observe the trace in order on one
 * thread (e.g. one technique's sampler, or the golden reference).
 * Groups are the unit of parallelism: two groups may replay on
 * different workers, sinks within a group never do.
 */
struct SinkGroup
{
    std::vector<TraceSink *> sinks;
};

/** Callback that hands one finished chunk to the replay pool. */
using ChunkPush = std::function<void(TraceChunkPtr)>;

/**
 * Core of the replay engine: broadcasts every chunk handed to the push
 * callback to min(threads, groups) workers, each driving a round-robin
 * share of @p groups. Blocks until @p pump returns and all workers
 * drain. The chunk source is abstract, so any producer can feed it: a
 * simulation (serial or time-parallel) chunked by a ChunkingSink,
 * optionally teeing into a trace-cache writer, or the frames of a
 * memory-mapped cached trace being decoded (no simulation at all).
 *
 * @param groups observer groups (each replayed in-order on one worker)
 * @param opts thread count / chunking / backpressure knobs
 * @param pump called once with the push callback; must deliver every
 *        chunk of the trace through it, in capture order
 * @return counters describing the run; simulateSeconds holds the time
 *         spent inside @p pump, replaySeconds the slowest worker
 */
ReplayStats replayChunksThroughPool(
    const std::vector<SinkGroup> &groups, const RunnerOptions &opts,
    const std::function<void(const ChunkPush &)> &pump);

/**
 * One experiment of a suite run: a workload factory plus the core
 * configuration to simulate it on. The factory (rather than a
 * materialized Workload) keeps a many-hundred-experiment sweep from
 * holding every program and initial heap image in memory at once — a
 * workload is built on the worker that runs it and freed with the
 * result.
 */
struct SuiteExperiment
{
    std::string name;                 ///< experiment (result/report) name
    std::function<Workload()> make;   ///< builds the workload to run
    CoreConfig cfg;                   ///< core configuration to run under
};

/**
 * Run many experiments concurrently: the fig 5/8/9 and sweep shape
 * (many (workload, config) pairs × a fixed technique set). Up to
 * opts.threads experiments are in flight at a time; each experiment
 * runs its observers serially in-process (the threads=1 path), so every
 * result is bit-identical to a serial loop — experiments are fully
 * independent simulations, which makes this the better-scaling axis
 * whenever there are more experiments than observer groups per
 * experiment.
 *
 * @return results in the order of @p experiments
 */
std::vector<ExperimentResult> runExperimentSuite(
    const std::vector<SuiteExperiment> &experiments,
    const std::vector<SamplerConfig> &techniques,
    const RunnerOptions &opts = RunnerOptions{});

/**
 * Convenience wrapper over runExperimentSuite: every named suite
 * benchmark (workloads::byName) under one shared core configuration.
 *
 * @return results in the order of @p names
 */
std::vector<ExperimentResult> runBenchmarkSuite(
    const std::vector<std::string> &names,
    const std::vector<SamplerConfig> &techniques,
    const RunnerOptions &opts = RunnerOptions{},
    const CoreConfig &cfg = CoreConfig{});

/**
 * Per-experiment error report of a suite run: one line per failed
 * experiment, empty string when every experiment succeeded.
 */
std::string renderSuiteErrors(const std::vector<ExperimentResult> &results);

/**
 * main()-tail for suite tools: print renderSuiteErrors to stderr and
 * return 1 when any experiment failed, 0 otherwise — a degraded suite
 * run must not exit 0 and look healthy to scripts.
 */
int suiteExitCode(const std::vector<ExperimentResult> &results);

} // namespace tea

#endif // TEA_ANALYSIS_PARALLEL_RUNNER_HH
