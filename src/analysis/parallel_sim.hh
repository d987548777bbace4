/**
 * @file
 * Time-parallel simulation: split one run along the time axis (DESIGN.md,
 * "Time-parallel simulation").
 *
 * A functional pre-pass (core/checkpoint) records the architectural
 * state at every interval boundary minus a warmup margin. N workers
 * then simulate the intervals concurrently: each starts a fresh Core
 * from its checkpoint, runs a warmup leg of TEA_SIM_WARMUP committed
 * micro-ops so the cold microarchitectural state (caches, TLBs,
 * predictor, LSQ history) converges onto the serial machine's, and
 * then simulates its interval proper. A stitcher consumes the interval
 * results in order, checks that each worker's warmup tail reproduces
 * the already-accepted stream over a suffix window of cycles, rebases
 * the accepted events into absolute (cycle, seq) coordinates, and
 * delivers them to the caller's sinks — bit-identical to a serial run
 * when every interval converges.
 *
 * Memory is bounded by design: a worker keeps only its warmup leg
 * verbatim and buffers its main leg as codec frames (core/trace_codec,
 * a few bytes per event); interval 0, which needs no checkpoint,
 * streams to the sinks through a bounded hand-off while the pre-pass
 * and the other intervals run; and the stitcher keeps only the
 * accepted suffix the next convergence check reads.
 *
 * When an interval fails the convergence check, the stitcher falls
 * back to exact serial continuation: the previous interval's core is
 * parked alive at the boundary, so re-running the failed interval on
 * it reproduces the serial stream by construction (worst case the
 * whole run degrades to serial, never to wrong). TEA_SIM_PARALLEL=
 * verify additionally runs the serial reference and fatals on any
 * divergence of the stitched stream or stats — the differential
 * oracle used by the simpar test suite.
 */

#ifndef TEA_ANALYSIS_PARALLEL_SIM_HH
#define TEA_ANALYSIS_PARALLEL_SIM_HH

#include <cstdint>
#include <vector>

#include "core/core.hh"
#include "isa/executor.hh"
#include "isa/program.hh"

namespace tea {

/** Knobs of one time-parallel simulation (all env-overridable). */
struct TimeParallelOptions
{
    /**
     * Worker threads (TEA_SIM_THREADS). 1 (the default) simulates
     * serially; 0 means one per hardware thread. More threads add
     * about one warmup leg of verbatim events per worker to the
     * codec-frame buffers, never a per-event copy of the run. The
     * interval length follows from the run's functional length: one
     * interval per worker, at least twice the warmup prefix.
     */
    unsigned threads = 1;

    /** Warmup prefix per interval in micro-ops (TEA_SIM_WARMUP). */
    std::uint64_t warmupUops = 16384;

    /**
     * Differential oracle (TEA_SIM_PARALLEL=verify): after a
     * time-parallel run, re-run serially and fatal on any divergence
     * of the stitched stream or stats.
     */
    bool verify = false;

    /** Read TEA_SIM_THREADS / TEA_SIM_WARMUP / TEA_SIM_PARALLEL over
     *  the defaults above. */
    static TimeParallelOptions fromEnv();

    /** True when these options ask for time-parallel simulation. */
    bool wantsParallel() const { return threads != 1; }
};

/** Observability counters of one simulateTimeParallel call. */
struct TimeParallelStats
{
    bool usedParallel = false;     ///< took the time-parallel path
    std::uint64_t intervals = 0;   ///< intervals planned (0 = serial)
    std::uint64_t warmupCycles = 0; ///< worker cycles spent warming up
    std::uint64_t convergenceRetries = 0; ///< intervals redone serially

    /**
     * Fraction of the simulated cycles that came from accepted
     * parallel intervals (1.0 = perfect, 0 = fully serial fallback).
     */
    double parallelEfficiency = 0.0;

    /**
     * High-water mark of the bytes the run buffered at once: worker
     * codec frames, verbatim warmup legs and the stitcher's tail
     * frames together (interval 0's hand-off adds a fixed few MB).
     */
    std::uint64_t peakBufferedBytes = 0;
};

/**
 * Simulate @p prog from @p initial under @p cfg, delivering the trace
 * to @p sinks bit-identically to `Core(cfg, prog, initial).run()`.
 * @p initial is taken by value: a caller done with its state moves it
 * in, and a serial run then hands the heap image to the core without
 * a copy.
 *
 * Falls back to a plain serial run (usedParallel == false) when the
 * options do not ask for parallelism, the program does not halt within
 * the pre-pass budget, the run is too short to split, or the config
 * uses sampling interrupts (whose absolute-cycle phase a restarted
 * interval cannot reproduce).
 *
 * A worker failure on any interval but the first is redone serially
 * like a non-converged interval. A failure in interval 0 (already
 * streamed to the sinks), in the stitcher or in a sink throws, after
 * every worker has been joined.
 *
 * @param stats_out filled with the stitched CoreStats (never null)
 * @param perf_out filled with the summed SimPerf of the accepted legs
 */
TimeParallelStats simulateTimeParallel(const CoreConfig &cfg,
                                       const Program &prog,
                                       ArchState initial,
                                       const TimeParallelOptions &opts,
                                       const std::vector<TraceSink *> &sinks,
                                       CoreStats *stats_out,
                                       SimPerf *perf_out);

} // namespace tea

#endif // TEA_ANALYSIS_PARALLEL_SIM_HH
