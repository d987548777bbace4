/**
 * @file
 * In-memory span and counter recording for the benchmark's traced run.
 *
 * Spans are recorded around the benchmark's own calls into each
 * layer's public functions; nothing inside src/ is instrumented. A
 * span names the layer call, the experiment it belongs to (the shared
 * request identifier) and the thread that made it. Spans stay in
 * memory until writeChromeTrace() emits them at the end of the run.
 *
 * Per-event observer time cannot be a span per call (a run delivers
 * tens of millions of events), so TimingSink accumulates busy time
 * per onBatch call and the caller records the total as a counter.
 */

#ifndef TEA_PERFBENCH_SPANS_HH
#define TEA_PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <vector>

#include "core/trace.hh"

namespace perfbench {

using Clock = std::chrono::steady_clock;

double secondsBetween(Clock::time_point a, Clock::time_point b);

/** Per-experiment sums of layer times (s) and counts, by metric name. */
using Counters = std::map<std::string, double>;

/** Add every value of @p from into @p into. */
void accumulate(Counters &into, const Counters &from);

/** One recorded interval of one layer call. */
struct Span
{
    std::string name;
    std::int64_t experiment = -1; ///< suite index, -1 for suite-level
    unsigned thread = 0;          ///< small per-process thread number
    double startS = 0.0;          ///< seconds since the recorder's epoch
    double durS = 0.0;
};

/** Thread-safe span store; a disabled recorder keeps nothing. */
class SpanRecorder
{
  public:
    explicit SpanRecorder(bool enabled);

    bool enabled() const { return enabled_; }

    void record(const std::string &name, std::int64_t experiment,
                Clock::time_point start, Clock::time_point end);

    /** Chrome trace-event JSON of every span (Perfetto loads it). */
    bool writeChromeTrace(const std::string &path) const;

    std::size_t size() const;

  private:
    const bool enabled_;
    const Clock::time_point epoch_;
    mutable std::mutex mu_;
    std::vector<Span> spans_; // guarded by mu_
};

/**
 * Times @p fn, adds its duration to counters[name] and records a
 * span. Returns fn's result.
 */
template <typename Fn>
auto
timed(SpanRecorder &rec, Counters &counters, const std::string &name,
      std::int64_t experiment, Fn &&fn)
{
    struct Guard
    {
        SpanRecorder &rec;
        Counters &counters;
        const std::string &name;
        std::int64_t experiment;
        Clock::time_point t0 = Clock::now();
        ~Guard()
        {
            const auto t1 = Clock::now();
            counters[name] += secondsBetween(t0, t1);
            rec.record(name, experiment, t0, t1);
        }
    } guard{rec, counters, name, experiment};
    return fn();
}

/**
 * TraceSink decorator that forwards every callback to an inner sink and
 * accumulates the time spent inside it. Batched delivery keeps the
 * clock reads to two per onBatch call, not per event.
 */
class TimingSink final : public tea::TraceSink
{
  public:
    explicit TimingSink(tea::TraceSink &inner) : inner_(inner) {}

    void onCycle(const tea::CycleRecord &rec) override;
    void onDispatch(const tea::UopRecord &rec) override;
    void onFetch(const tea::UopRecord &rec) override;
    void onRetire(const tea::RetireRecord &rec) override;
    void onEnd(tea::Cycle final_cycle) override;
    void onBatch(const tea::TraceEvent *events, std::size_t n) override;

    /** Seconds spent inside the inner sink so far. */
    double seconds() const { return static_cast<double>(ns_) * 1e-9; }

    /** Events delivered through onBatch plus per-record calls. */
    std::uint64_t events() const { return events_; }

  private:
    template <typename Fn> void time(std::uint64_t events, Fn &&fn);

    tea::TraceSink &inner_;
    std::uint64_t ns_ = 0;
    std::uint64_t events_ = 0;
};

} // namespace perfbench

#endif // TEA_PERFBENCH_SPANS_HH
