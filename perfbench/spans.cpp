#include "spans.hh"

#include <cstdio>
#include <thread>
#include <unordered_map>

#include "core/trace_buffer.hh"

namespace perfbench {

double
secondsBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double>(b - a).count();
}

void
accumulate(Counters &into, const Counters &from)
{
    for (const auto &[name, value] : from)
        into[name] += value;
}

namespace {

/** Small stable thread numbers for the trace viewer. */
unsigned
threadNumber()
{
    static std::mutex mu;
    static std::unordered_map<std::thread::id, unsigned> ids;
    std::lock_guard<std::mutex> lock(mu);
    auto [it, fresh] = ids.try_emplace(std::this_thread::get_id(),
                                       static_cast<unsigned>(ids.size()));
    (void)fresh;
    return it->second;
}

} // namespace

SpanRecorder::SpanRecorder(bool enabled)
    : enabled_(enabled), epoch_(Clock::now())
{
}

void
SpanRecorder::record(const std::string &name, std::int64_t experiment,
                     Clock::time_point start, Clock::time_point end)
{
    if (!enabled_)
        return;
    Span s{name, experiment, threadNumber(), secondsBetween(epoch_, start),
           secondsBetween(start, end)};
    std::lock_guard<std::mutex> lock(mu_);
    spans_.push_back(std::move(s));
}

std::size_t
SpanRecorder::size() const
{
    std::lock_guard<std::mutex> lock(mu_);
    return spans_.size();
}

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (!f)
        return false;
    std::lock_guard<std::mutex> lock(mu_);
    std::fputs("{\"traceEvents\":[\n", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%u,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"experiment\":%lld}}\n",
                     i ? "," : "", s.name.c_str(), s.thread,
                     s.startS * 1e6, s.durS * 1e6,
                     static_cast<long long>(s.experiment));
    }
    std::fputs("]}\n", f);
    return std::fclose(f) == 0;
}

template <typename Fn>
void
TimingSink::time(std::uint64_t events, Fn &&fn)
{
    const auto t0 = Clock::now();
    fn();
    ns_ += static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::nanoseconds>(Clock::now() -
                                                             t0)
            .count());
    events_ += events;
}

void
TimingSink::onCycle(const tea::CycleRecord &rec)
{
    time(1, [&] { inner_.onCycle(rec); });
}

void
TimingSink::onDispatch(const tea::UopRecord &rec)
{
    time(1, [&] { inner_.onDispatch(rec); });
}

void
TimingSink::onFetch(const tea::UopRecord &rec)
{
    time(1, [&] { inner_.onFetch(rec); });
}

void
TimingSink::onRetire(const tea::RetireRecord &rec)
{
    time(1, [&] { inner_.onRetire(rec); });
}

void
TimingSink::onEnd(tea::Cycle final_cycle)
{
    time(1, [&] { inner_.onEnd(final_cycle); });
}

void
TimingSink::onBatch(const tea::TraceEvent *events, std::size_t n)
{
    time(n, [&] { inner_.onBatch(events, n); });
}

} // namespace perfbench
