#include "common/stats.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace tea {

double
mean(const std::vector<double> &xs)
{
    if (xs.empty())
        return 0.0;
    double s = 0.0;
    for (double x : xs)
        s += x;
    return s / static_cast<double>(xs.size());
}

double
stddev(const std::vector<double> &xs)
{
    if (xs.size() < 2)
        return 0.0;
    double m = mean(xs);
    double s = 0.0;
    for (double x : xs)
        s += (x - m) * (x - m);
    return std::sqrt(s / static_cast<double>(xs.size() - 1));
}

double
percentile(std::vector<double> xs, double p)
{
    if (xs.empty())
        return 0.0;
    tea_assert(p >= 0.0 && p <= 100.0, "percentile %f out of range", p);
    std::sort(xs.begin(), xs.end());
    if (xs.size() == 1)
        return xs[0];
    double rank = p / 100.0 * static_cast<double>(xs.size() - 1);
    auto lo = static_cast<std::size_t>(rank);
    std::size_t hi = std::min(lo + 1, xs.size() - 1);
    double frac = rank - static_cast<double>(lo);
    return xs[lo] + frac * (xs[hi] - xs[lo]);
}

double
pearson(const std::vector<double> &xs, const std::vector<double> &ys)
{
    tea_assert(xs.size() == ys.size(), "pearson: size mismatch %zu vs %zu",
               xs.size(), ys.size());
    std::size_t n = xs.size();
    if (n < 2)
        return 0.0;
    double mx = mean(xs);
    double my = mean(ys);
    double sxy = 0.0, sxx = 0.0, syy = 0.0;
    for (std::size_t i = 0; i < n; ++i) {
        double dx = xs[i] - mx;
        double dy = ys[i] - my;
        sxy += dx * dy;
        sxx += dx * dx;
        syy += dy * dy;
    }
    if (sxx <= 0.0 || syy <= 0.0)
        return 0.0;
    return sxy / std::sqrt(sxx * syy);
}

BoxplotSummary
boxplot(std::vector<double> xs)
{
    BoxplotSummary s;
    if (xs.empty())
        return s;
    std::sort(xs.begin(), xs.end());
    s.n = xs.size();
    s.min = xs.front();
    s.max = xs.back();
    s.q1 = percentile(xs, 25.0);
    s.median = percentile(xs, 50.0);
    s.q3 = percentile(xs, 75.0);
    return s;
}

Histogram::Histogram(std::uint64_t max_value)
    : bins_(max_value + 2, 0), maxValue_(max_value)
{
}

void
Histogram::add(std::uint64_t value, std::uint64_t weight)
{
    std::size_t idx = value > maxValue_ ? bins_.size() - 1
                                        : static_cast<std::size_t>(value);
    bins_[idx] += weight;
    count_ += weight;
    sum_ += static_cast<unsigned __int128>(
                std::min<std::uint64_t>(value, maxValue_)) *
            weight;
}

double
Histogram::mean() const
{
    if (count_ == 0)
        return 0.0;
    return static_cast<double>(static_cast<double>(sum_)) /
           static_cast<double>(count_);
}

std::uint64_t
Histogram::quantile(double f) const
{
    if (count_ == 0)
        return 0;
    auto target = static_cast<std::uint64_t>(
        f * static_cast<double>(count_));
    if (target == 0)
        target = 1;
    std::uint64_t acc = 0;
    for (std::size_t v = 0; v < bins_.size(); ++v) {
        acc += bins_[v];
        if (acc >= target)
            return v == bins_.size() - 1 ? maxValue_ + 1
                                         : static_cast<std::uint64_t>(v);
    }
    return maxValue_ + 1;
}

std::string
ReplayStats::render() const
{
    std::string out;
    const char *source = cacheHit ? "trace cache" : "simulation";
    if (!parallel()) {
        out += strprintf("replay: serial in-process path from %s "
                         "(%.3f s total)\n",
                         source, totalSeconds);
        out += strprintf("  simulate %.3f s, decode %.3f s, replay %.3f s\n",
                         simulateSeconds, decodeSeconds, replaySeconds);
    } else {
        out += strprintf(
            "replay: %u worker(s) from %s, %llu chunk(s), %llu event(s), "
            "%llu producer queue-full stall(s)\n",
            threads, source,
            static_cast<unsigned long long>(chunksProduced),
            static_cast<unsigned long long>(eventsCaptured),
            static_cast<unsigned long long>(queueFullStalls));
        out += strprintf(
            "  simulate %.3f s, decode %.3f s, replay %.3f s, "
            "total %.3f s\n",
            simulateSeconds, decodeSeconds, replaySeconds, totalSeconds);
    }
    if (simCycles > 0 && simulateSeconds > 0.0) {
        out += strprintf(
            "  simulate throughput: %.2f Mcycles/s, %.2f Mevents/s\n",
            simCyclesPerSecond() / 1e6, simEventsPerSecond() / 1e6);
    }
    if (simParallel) {
        out += strprintf(
            "  time-parallel: %llu interval(s), %llu warmup cycle(s), "
            "%llu convergence retry(s), %.1f%% parallel, %.1f MB "
            "buffered at peak\n",
            static_cast<unsigned long long>(simIntervals),
            static_cast<unsigned long long>(simWarmupCycles),
            static_cast<unsigned long long>(simConvergenceRetries),
            simParallelEfficiency * 100.0,
            static_cast<double>(simPeakBufferedBytes) / 1e6);
    }
    if (cacheHit || cacheStored)
        out += strprintf("  cache: %s, %llu byte(s) on disk\n",
                         cacheHit ? "hit" : "miss (entry stored)",
                         static_cast<unsigned long long>(cacheBytes));
    if (ioRetries || ioRecoveries || quarantined || workerFailures ||
        degradedExperiments) {
        out += strprintf(
            "  fault: %llu retry(s), %llu recovery(s), %llu "
            "quarantined, %u worker failure(s), %u degraded "
            "experiment(s)\n",
            static_cast<unsigned long long>(ioRetries),
            static_cast<unsigned long long>(ioRecoveries),
            static_cast<unsigned long long>(quarantined),
            workerFailures, degradedExperiments);
    }
    if (cacheEvictions || janitorRemovals || lockDegrades ||
        cacheAdmissionDenied) {
        out += strprintf(
            "  janitor: %llu eviction(s) (%llu byte(s)), %llu debris "
            "removal(s), %u lock degrade(s)%s\n",
            static_cast<unsigned long long>(cacheEvictions),
            static_cast<unsigned long long>(cacheEvictedBytes),
            static_cast<unsigned long long>(janitorRemovals),
            lockDegrades,
            cacheAdmissionDenied ? ", admission denied" : "");
    }
    if (!parallel())
        return out;
    for (const ReplayWorkerStats &w : workers) {
        out += strprintf(
            "  worker %u: %u group(s), %llu chunk(s), %llu event(s), "
            "%llu cycle(s), %llu empty-wait(s), %.2f Mcycles/s\n",
            w.workerId, w.sinkGroups,
            static_cast<unsigned long long>(w.chunksConsumed),
            static_cast<unsigned long long>(w.eventsReplayed),
            static_cast<unsigned long long>(w.cyclesReplayed),
            static_cast<unsigned long long>(w.queueEmptyWaits),
            w.cyclesPerSecond() / 1e6);
        if (!w.error.empty())
            out += strprintf("  worker %u: FAILED: %s\n", w.workerId,
                             w.error.c_str());
    }
    return out;
}

std::string
ReplayStats::renderLine() const
{
    std::string out = strprintf("%.2f s total", totalSeconds);
    if (simCycles > 0 && simulateSeconds > 0.0) {
        out += strprintf(
            " (simulate %.2f s, %.2f Mcycles/s, %.2f Mevents/s)",
            simulateSeconds, simCyclesPerSecond() / 1e6,
            simEventsPerSecond() / 1e6);
    }
    if (simParallel)
        out += strprintf(" [time-parallel x%llu, %.0f%%, %.1f MB peak]",
                         static_cast<unsigned long long>(simIntervals),
                         simParallelEfficiency * 100.0,
                         static_cast<double>(simPeakBufferedBytes) / 1e6);
    out += cacheHit ? " [cache hit]" : "";
    return out;
}

} // namespace tea
