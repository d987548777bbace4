/**
 * @file
 * Statistics helpers used by the analysis layer and the benches:
 * summary moments, percentiles, Pearson correlation, five-number boxplot
 * summaries, fixed-bin histograms, and the replay-engine counters that
 * make the parallel runner's behaviour observable.
 */

#ifndef TEA_COMMON_STATS_HH
#define TEA_COMMON_STATS_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <vector>

namespace tea {

/** Arithmetic mean; 0 for an empty vector. */
double mean(const std::vector<double> &xs);

/** Sample standard deviation (n-1 denominator); 0 for n < 2. */
double stddev(const std::vector<double> &xs);

/**
 * Linear-interpolated percentile.
 *
 * @param xs data (copied and sorted internally)
 * @param p percentile in [0, 100]
 */
double percentile(std::vector<double> xs, double p);

/**
 * Pearson correlation coefficient between two equally sized series.
 *
 * Returns 0 when either series has zero variance (the convention used in
 * the Fig 7 analysis: an event that never varies carries no signal).
 */
double pearson(const std::vector<double> &xs, const std::vector<double> &ys);

/** Five-number summary for boxplot rendering. */
struct BoxplotSummary
{
    double min = 0;
    double q1 = 0;
    double median = 0;
    double q3 = 0;
    double max = 0;
    std::size_t n = 0;
};

/** Compute the five-number summary of a series. */
BoxplotSummary boxplot(std::vector<double> xs);

/**
 * Streaming histogram over uint64 values with power-of-two-friendly fixed
 * bins, used for stall-length distributions.
 */
class Histogram
{
  public:
    /** @param max_value values above this land in the overflow bin */
    explicit Histogram(std::uint64_t max_value);

    /** Record one observation. */
    void add(std::uint64_t value, std::uint64_t weight = 1);

    /** Total recorded weight. */
    std::uint64_t count() const { return count_; }

    /** Weighted mean of recorded values (overflow counted at max). */
    double mean() const;

    /**
     * Smallest value v such that at least fraction f of the recorded
     * weight is <= v. Returns max_value+1 if f falls in the overflow bin.
     */
    std::uint64_t quantile(double f) const;

    /** Per-value counts (index = value, last index = overflow). */
    const std::vector<std::uint64_t> &bins() const { return bins_; }

  private:
    std::vector<std::uint64_t> bins_;
    std::uint64_t maxValue_;
    std::uint64_t count_ = 0;
    unsigned __int128 sum_ = 0;
};

/** Per-worker counters of one parallel replay (see analysis/parallel_runner). */
struct ReplayWorkerStats
{
    unsigned workerId = 0;
    unsigned sinkGroups = 0;          ///< observer groups this worker drives
    std::uint64_t chunksConsumed = 0;
    std::uint64_t eventsReplayed = 0;
    std::uint64_t cyclesReplayed = 0;
    std::uint64_t queueEmptyWaits = 0; ///< times blocked on an empty queue
    double replaySeconds = 0.0;        ///< wall time inside the replay loop

    /**
     * Non-empty when this worker's observers died mid-replay: the
     * exception was contained (the worker kept draining the queue so
     * the producer never deadlocks) and the experiment as a whole is
     * failed with this message (see DESIGN.md, "Failure model and
     * recovery").
     */
    std::string error;

    /** Replay throughput in cycles per second (0 if unmeasured). */
    double cyclesPerSecond() const
    {
        return replaySeconds > 0.0
                   ? static_cast<double>(cyclesReplayed) / replaySeconds
                   : 0.0;
    }
};

/** Aggregate counters of one parallel replay run. */
struct ReplayStats
{
    unsigned threads = 0;              ///< worker threads (0 = serial path)
    std::uint64_t chunksProduced = 0;
    std::uint64_t eventsCaptured = 0;
    std::uint64_t queueFullStalls = 0; ///< producer-side backpressure hits
    double simulateSeconds = 0.0;      ///< core-model simulation wall time
    double totalSeconds = 0.0;         ///< whole-experiment wall time
    std::uint64_t simCycles = 0;  ///< cycles simulated (0 on a cache hit)
    std::uint64_t simEvents = 0;  ///< trace events the simulation emitted

    // Time-parallel simulation counters (see analysis/parallel_sim).
    bool simParallel = false;     ///< cold simulate took the parallel path
    std::uint64_t simIntervals = 0;       ///< intervals the run split into
    std::uint64_t simWarmupCycles = 0;    ///< worker cycles spent warming up
    std::uint64_t simConvergenceRetries = 0; ///< intervals redone serially
    double simParallelEfficiency = 0.0; ///< accepted parallel cycle fraction
    std::uint64_t simPeakBufferedBytes = 0; ///< high-water trace buffering
    std::vector<ReplayWorkerStats> workers;

    // Trace-cache counters (see analysis/trace_cache).
    bool cacheHit = false;      ///< trace came from the persistent cache
    bool cacheStored = false;   ///< this run published a new cache entry
    std::uint64_t cacheBytes = 0; ///< on-disk size of the entry used/made
    /**
     * Wall time spent inside chunk decode on a warm cache hit (one
     * decoder in the producer, MappedTraceFile::nextChunk). Metered
     * around the decode calls only — queue backpressure and observer
     * time are excluded, so decode and technique-accumulation cost
     * stay separately attributable.
     */
    double decodeSeconds = 0.0;
    double replaySeconds = 0.0; ///< observer wall time (max across workers)

    // Self-healing counters (common/retry, analysis/trace_cache
    // quarantine, and the contained-failure path in the runner).
    std::uint64_t ioRetries = 0;    ///< transient cache-I/O retry attempts
    std::uint64_t ioRecoveries = 0; ///< cache-I/O ops that recovered on retry
    std::uint64_t quarantined = 0;  ///< damaged cache entries quarantined
    unsigned workerFailures = 0;    ///< replay workers that died (contained)

    // Cache-lifecycle counters (see analysis/cache_janitor).
    std::uint64_t cacheEvictions = 0; ///< entries evicted for the budget
    std::uint64_t cacheEvictedBytes = 0; ///< bytes those entries held
    std::uint64_t janitorRemovals = 0; ///< debris files GC'd (tmp/lock/quar)
    unsigned lockDegrades = 0; ///< store skipped: entry lock contended
    bool cacheAdmissionDenied = false; ///< entry larger than the budget

    /**
     * Number of experiments that failed (with a contained,
     * per-experiment error) in the suite run this experiment was part
     * of; 0 for standalone runs and fully healthy suites. Stamped on
     * every result of the suite by runBenchmarkSuite.
     */
    unsigned degradedExperiments = 0;

    /** True when this run went through the threaded replay path. */
    bool parallel() const { return threads > 0; }

    /** Simulate-phase throughput in cycles/second (0 if unmeasured). */
    double simCyclesPerSecond() const
    {
        return simulateSeconds > 0.0
                   ? static_cast<double>(simCycles) / simulateSeconds
                   : 0.0;
    }

    /** Simulate-phase throughput in events/second (0 if unmeasured). */
    double simEventsPerSecond() const
    {
        return simulateSeconds > 0.0
                   ? static_cast<double>(simEvents) / simulateSeconds
                   : 0.0;
    }

    /** Multi-line human-readable listing of all counters. */
    std::string render() const;

    /**
     * One-line summary for per-experiment status output (the
     * TEA_RUNNER_STATS line): total time, simulate-phase throughput
     * when this run simulated, and the trace source.
     */
    std::string renderLine() const;
};

} // namespace tea

#endif // TEA_COMMON_STATS_HH
