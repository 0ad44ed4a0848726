/**
 * @file
 * Host-time spans recorded by the benchmark around its calls into the
 * simulator's public API. Spans stay in memory while the benchmark
 * runs and are written out once at the end as Chrome trace JSON, the
 * same format gpsim --timeline-out produces, so Perfetto opens both.
 */

#ifndef PERFBENCH_SPANS_HH
#define PERFBENCH_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

namespace perfbench
{

/** One closed or open span. */
struct SpanRecord
{
    std::string name;
    double start = 0.0; ///< seconds since the log was created
    double end = 0.0;
    std::int64_t parent = -1; ///< index of the enclosing span, -1 = root
    std::uint64_t run = 0;    ///< simulation run the span belongs to
    int tid = 0;              ///< small per-thread index
    std::string detail;       ///< e.g. the run's label
};

/** Thread-safe in-memory span log. */
class SpanLog
{
  public:
    SpanLog();

    /** Open a span now; @return its id. */
    std::int64_t open(std::string name, std::int64_t parent,
                      std::uint64_t run, std::string detail = {});

    /** Close span @p id now; @return its duration in seconds. */
    double close(std::int64_t id);

    std::vector<SpanRecord> spans() const;

    /** Write every span as Chrome trace-event JSON. */
    void writeChromeTrace(const std::string& path) const;

  private:
    double now() const;

    std::chrono::steady_clock::time_point origin_;
    mutable std::mutex mu_;
    std::vector<SpanRecord> spans_;
    std::map<std::thread::id, int> tids_;
};

/** Where a span opens: the log (null = untraced), its parent and run. */
struct SpanContext
{
    SpanLog* log = nullptr;
    std::int64_t parent = -1;
    std::uint64_t run = 0;
};

/**
 * A span when the context has a log, a bare stopwatch otherwise, so
 * traced and untraced executions share one code path.
 */
class Span
{
  public:
    Span(const SpanContext& at, std::string name, std::string detail = {})
        : at_(at), t0_(std::chrono::steady_clock::now())
    {
        if (at_.log != nullptr)
            id_ = at_.log->open(std::move(name), at_.parent, at_.run,
                                std::move(detail));
    }
    ~Span() { stop(); }

    Span(const Span&) = delete;
    Span& operator=(const Span&) = delete;

    /** Context for spans this one encloses. */
    SpanContext inner() const { return {at_.log, id_, at_.run}; }

    /** Stop once; @return the elapsed seconds. */
    double
    stop()
    {
        if (!stopped_) {
            seconds_ = at_.log != nullptr
                           ? at_.log->close(id_)
                           : std::chrono::duration<double>(
                                 std::chrono::steady_clock::now() - t0_)
                                 .count();
            stopped_ = true;
        }
        return seconds_;
    }

  private:
    SpanContext at_;
    std::chrono::steady_clock::time_point t0_;
    std::int64_t id_ = -1;
    bool stopped_ = false;
    double seconds_ = 0.0;
};

/** Per span name: count, total and self seconds (total minus children). */
struct SpanTotals
{
    std::uint64_t count = 0;
    double total = 0.0;
    double self = 0.0;
};

std::map<std::string, SpanTotals>
summarize(const std::vector<SpanRecord>& spans);

} // namespace perfbench

#endif // PERFBENCH_SPANS_HH
