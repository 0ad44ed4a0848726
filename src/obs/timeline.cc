#include "obs/timeline.hh"

#include "common/json.hh"
#include "common/units.hh"

namespace gps
{

void
TimelineRecorder::nameTrack(int tid, std::string label)
{
    trackNames_[tid] = std::move(label);
}

bool
TimelineRecorder::admit()
{
    if (events_.size() >= maxEvents_) {
        ++dropped_;
        return false;
    }
    return true;
}

void
TimelineRecorder::complete(int tid, std::string name, std::string cat,
                           Tick start, Tick dur,
                           std::vector<std::pair<std::string, double>> args)
{
    if (!admit())
        return;
    events_.push_back({std::move(name), std::move(cat), 'X', tid, start,
                       dur, 0, std::move(args)});
}

void
TimelineRecorder::instant(int tid, std::string name, std::string cat,
                          Tick ts,
                          std::vector<std::pair<std::string, double>> args)
{
    if (!admit())
        return;
    events_.push_back({std::move(name), std::move(cat), 'i', tid, ts, 0,
                       0, std::move(args)});
}

void
TimelineRecorder::flow(int tid, std::string name, std::string cat,
                       Tick ts, std::uint64_t id, bool start)
{
    if (!admit())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = std::move(cat);
    ev.ph = start ? 's' : 'f';
    ev.tid = tid;
    ev.ts = ts;
    ev.flowId = id;
    events_.push_back(std::move(ev));
}

void
TimelineRecorder::transferState(snapshot::StateIO& io)
{
    io.section("timeline");
    io.u64(now_);
    io.u64(dropped_);
    io.sortedKeys(trackNames_, 1ULL << 20,
                  [&io](int& tid, std::string& label) {
                      io.as<std::int64_t>(tid);
                      io.str(label);
                  });
    events_.resize(io.count(events_.size(), 1ULL << 28));
    for (TraceEvent& ev : events_) {
        io.str(ev.name);
        io.str(ev.cat);
        io.as<std::uint8_t>(ev.ph);
        io.as<std::int64_t>(ev.tid);
        io.u64(ev.ts);
        io.u64(ev.dur);
        io.u64(ev.flowId);
        ev.args.resize(io.count(ev.args.size(), 1ULL << 16));
        for (auto& [name, value] : ev.args) {
            io.str(name);
            io.f64(value);
        }
    }
}

void
TimelineRecorder::counterNow(std::string name, double value)
{
    if (!admit())
        return;
    TraceEvent ev;
    ev.name = std::move(name);
    ev.cat = "counter";
    ev.ph = 'C';
    ev.tid = systemTid;
    ev.ts = now_;
    ev.args.emplace_back("value", value);
    events_.push_back(std::move(ev));
}

std::string
timelineToJson(const std::vector<TraceEvent>& events,
               const std::map<int, std::string>& track_names,
               std::uint64_t dropped)
{
    JsonWriter w;
    w.beginObject();
    w.key("traceEvents").beginArray();

    // Metadata events first: process and per-track names.
    w.beginObject();
    w.field("name", "process_name");
    w.field("ph", "M");
    w.field("pid", std::uint64_t(0));
    w.field("tid", std::uint64_t(0));
    w.key("args").beginObject();
    w.field("name", "gpsim");
    w.endObject();
    w.endObject();
    for (const auto& [tid, label] : track_names) {
        w.beginObject();
        w.field("name", "thread_name");
        w.field("ph", "M");
        w.field("pid", std::uint64_t(0));
        w.field("tid", static_cast<std::uint64_t>(tid));
        w.key("args").beginObject();
        w.field("name", label);
        w.endObject();
        w.endObject();
    }

    for (const TraceEvent& ev : events) {
        w.beginObject();
        w.field("name", ev.name);
        w.field("cat", ev.cat);
        w.field("ph", std::string(1, ev.ph));
        w.field("pid", std::uint64_t(0));
        w.field("tid", static_cast<std::uint64_t>(ev.tid));
        w.field("ts", ticksToUs(ev.ts));
        if (ev.ph == 'X')
            w.field("dur", ticksToUs(ev.dur));
        if (ev.ph == 'i')
            w.field("s", "t"); // thread-scoped instant
        if (ev.ph == 's' || ev.ph == 'f') {
            w.field("id", ev.flowId);
            if (ev.ph == 'f')
                w.field("bp", "e"); // bind finish to enclosing slice
        }
        if (!ev.args.empty()) {
            w.key("args").beginObject();
            for (const auto& [name, value] : ev.args)
                w.field(name, value);
            w.endObject();
        }
        w.endObject();
    }
    w.endArray();
    w.field("displayTimeUnit", "ms");
    w.key("otherData").beginObject();
    w.field("dropped_events", dropped);
    w.endObject();
    w.endObject();
    return w.str();
}

} // namespace gps
