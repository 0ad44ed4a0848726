#include "api/result_export.hh"

#include <algorithm>
#include <array>
#include <string_view>

#include "check/check_config.hh"
#include "common/json.hh"

namespace gps
{

namespace
{

/** The KernelCounters fields the "totals" object carries, in order. */
constexpr auto totalsFields = [] {
    constexpr std::string_view names[] = {
        "accesses",     "loads",          "stores",
        "atomics",      "page_faults",    "page_migrations",
        "remote_loads", "remote_atomics", "pushed_store_bytes",
        "wq_inserts",   "wq_coalesced",   "wq_drains",
        "sys_collapses",
    };
    std::array<CounterField<KernelCounters>, std::size(names)> out{};
    for (std::size_t i = 0; i < out.size(); ++i)
        for (const auto& f : kernelCounterFields)
            if (names[i] == f.name)
                out[i] = f;
    return out;
}();

static_assert(std::all_of(totalsFields.begin(), totalsFields.end(),
                          [](const auto& f) { return f.name != nullptr; }),
              "every totals field names a KernelCounters member");

} // namespace

std::string
resultToJson(const RunResult& result, bool include_stats)
{
    JsonWriter json;
    json.beginObject();
    json.field("workload", result.workload);
    json.field("paradigm", result.paradigm);
    json.field("num_gpus",
               static_cast<std::uint64_t>(result.numGpus));
    json.field("total_time_ms", result.timeMs());
    json.field("interconnect_bytes", result.interconnectBytes);
    json.field("l2_hit_rate", result.l2HitRate);
    json.field("tlb_hit_rate", result.tlbHitRate);
    json.field("wq_hit_rate", result.wqHitRate);
    json.field("gps_tlb_hit_rate", result.gpsTlbHitRate);

    json.key("totals").beginObject();
    for (const auto& f : totalsFields)
        json.field(f.name, result.totals.*f.member);
    json.endObject();

    if (result.hasSubscriberHist) {
        json.key("subscriber_histogram").beginArray();
        for (std::size_t b = 0; b < result.subscriberHist.size(); ++b)
            json.value(result.subscriberHist.bucket(b));
        json.endArray();
    }

    if (result.hasFaultReport) {
        const FaultReport& faults = result.faultReport;
        json.key("faults").beginObject();
        for (const auto& f : faultReportFields)
            if (f.member != &FaultReport::stallTicks)
                json.field(f.name, faults.*f.member);
        json.field("stall_time_ms", ticksToMs(faults.stallTicks));
        json.endObject();
    }

    if (result.check != nullptr) {
        const CheckReport& check = *result.check;
        json.key("check").beginObject();
        json.field("ok", check.ok());
        json.field("ref_accesses", check.refAccesses);
        json.field("unmodeled_accesses", check.unmodeledAccesses);
        json.field("sink_events", check.sinkEvents);
        json.field("invariant_checks", check.invariantChecks);
        json.field("counter_checks", check.counterChecks);
        json.field("divergences", check.divergences);
        if (!check.findings.empty()) {
            json.key("findings").beginArray();
            for (const CheckFinding& f : check.findings) {
                json.beginObject();
                json.field("invariant", f.invariant);
                json.field("detail", f.detail);
                json.field("phase", f.phase);
                if (f.gpu != invalidGpu)
                    json.field("gpu",
                               static_cast<std::uint64_t>(f.gpu));
                if (f.hasVpn)
                    json.field("vpn",
                               static_cast<std::uint64_t>(f.vpn));
                json.endObject();
            }
            json.endArray();
        }
        json.endObject();
    }

    if (include_stats) {
        json.key("stats").beginObject();
        for (const auto& [name, value] : result.stats.all())
            json.field(name, value);
        json.endObject();
    }

    json.endObject();
    return json.str();
}

} // namespace gps
