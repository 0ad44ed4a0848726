#include "spans.hh"

#include <algorithm>
#include <fstream>
#include <stdexcept>

#include "common/json.hh"

namespace perfbench
{

SpanLog::SpanLog() : origin_(std::chrono::steady_clock::now()) {}

double
SpanLog::now() const
{
    return std::chrono::duration<double>(std::chrono::steady_clock::now() -
                                         origin_)
        .count();
}

std::int64_t
SpanLog::open(std::string name, std::int64_t parent, std::uint64_t run,
              std::string detail)
{
    const double start = now();
    const std::lock_guard<std::mutex> lock(mu_);
    const int tid = tids_.try_emplace(std::this_thread::get_id(),
                                      static_cast<int>(tids_.size()))
                        .first->second;
    spans_.push_back(SpanRecord{std::move(name), start, start, parent, run,
                                tid, std::move(detail)});
    return static_cast<std::int64_t>(spans_.size() - 1);
}

double
SpanLog::close(std::int64_t id)
{
    const double end = now();
    const std::lock_guard<std::mutex> lock(mu_);
    SpanRecord& span = spans_.at(static_cast<std::size_t>(id));
    span.end = end;
    return span.end - span.start;
}

std::vector<SpanRecord>
SpanLog::spans() const
{
    const std::lock_guard<std::mutex> lock(mu_);
    return spans_;
}

void
SpanLog::writeChromeTrace(const std::string& path) const
{
    const std::vector<SpanRecord> all = spans();
    int threads = 0;
    gps::JsonWriter json;
    json.beginObject().key("traceEvents").beginArray();
    for (std::size_t i = 0; i < all.size(); ++i) {
        const SpanRecord& span = all[i];
        threads = std::max(threads, span.tid + 1);
        json.beginObject();
        json.key("name").value(span.name);
        json.key("cat").value("host");
        json.key("ph").value("X");
        json.key("ts").value(span.start * 1e6);
        json.key("dur").value((span.end - span.start) * 1e6);
        json.key("pid").value(std::uint64_t{1});
        json.key("tid").value(static_cast<std::uint64_t>(span.tid));
        json.key("args").beginObject();
        json.key("span").value(static_cast<std::uint64_t>(i));
        json.key("parent").value(static_cast<double>(span.parent));
        json.key("run").value(span.run);
        if (!span.detail.empty())
            json.key("label").value(span.detail);
        json.endObject();
        json.endObject();
    }
    for (int t = 0; t < threads; ++t) {
        json.beginObject();
        json.key("name").value("thread_name");
        json.key("ph").value("M");
        json.key("pid").value(std::uint64_t{1});
        json.key("tid").value(static_cast<std::uint64_t>(t));
        json.key("args").beginObject();
        json.key("name").value("bench thread " + std::to_string(t));
        json.endObject();
        json.endObject();
    }
    json.endArray();
    json.key("displayTimeUnit").value("ms");
    json.endObject();

    std::ofstream out(path, std::ios::trunc);
    out << json.str() << '\n';
    if (!out)
        throw std::runtime_error("cannot write span trace to " + path);
}

std::map<std::string, SpanTotals>
summarize(const std::vector<SpanRecord>& spans)
{
    // Children may overlap (sweep workers), so a span's covered time is
    // the union of its children's intervals, not their sum.
    std::vector<std::vector<std::pair<double, double>>> children(
        spans.size());
    for (const SpanRecord& span : spans)
        if (span.parent >= 0)
            children[static_cast<std::size_t>(span.parent)].emplace_back(
                span.start, span.end);
    std::map<std::string, SpanTotals> totals;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        auto& kids = children[i];
        std::sort(kids.begin(), kids.end());
        double covered = 0.0;
        double reach = spans[i].start;
        for (const auto& [start, end] : kids) {
            const double from = std::max(start, reach);
            const double to = std::min(end, spans[i].end);
            if (to > from)
                covered += to - from;
            reach = std::max(reach, to);
        }
        SpanTotals& t = totals[spans[i].name];
        const double dur = spans[i].end - spans[i].start;
        ++t.count;
        t.total += dur;
        t.self += dur - covered;
    }
    return totals;
}

} // namespace perfbench
