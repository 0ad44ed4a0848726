#include "obs/profile.hh"

#include <algorithm>

#include "common/json.hh"
#include "common/units.hh"

namespace gps
{

const std::array<const char*, BottleneckProfile::numComponents>&
BottleneckProfile::componentNames()
{
    static const std::array<const char*, numComponents> names = {
        "compute",    "l2",     "dram",       "page_walks", "egress",
        "ingress",    "remote", "faults",     "shootdowns", "wq_stall",
    };
    return names;
}

std::array<Tick, BottleneckProfile::numComponents>
BottleneckProfile::components() const
{
    return {kernel.tCompute, kernel.tL2,     kernel.tDram,
            kernel.tWalks,   tEgress,        tIngress,
            tRemote,         kernel.tFaults, kernel.tShootdowns,
            kernel.tWqStall};
}

std::array<double, BottleneckProfile::numComponents>
BottleneckProfile::shares() const
{
    const auto terms = components();
    double sum = 0.0;
    for (const Tick t : terms)
        sum += static_cast<double>(t);
    std::array<double, numComponents> out{};
    if (sum <= 0.0) {
        out[0] = 1.0; // idle kernel: attribute everything to compute
        return out;
    }
    for (std::size_t i = 0; i < numComponents; ++i)
        out[i] = static_cast<double>(terms[i]) / sum;
    return out;
}

const char*
BottleneckProfile::limiter() const
{
    const auto terms = components();
    std::size_t best = 0;
    for (std::size_t i = 1; i < numComponents; ++i)
        if (terms[i] > terms[best])
            best = i;
    return componentNames()[best];
}

double
BottleneckProfile::achievedDramBps() const
{
    const double seconds = ticksToSeconds(kernel.gpuTime);
    return seconds > 0.0 ? static_cast<double>(dramBytes) / seconds : 0.0;
}

double
BottleneckProfile::achievedLinkBps() const
{
    const double seconds = ticksToSeconds(kernel.gpuTime);
    return seconds > 0.0
               ? static_cast<double>(kernel.egressBytes) / seconds
               : 0.0;
}

ProfileCollector::ProfileCollector(std::uint64_t pages_per_bucket,
                                   std::size_t top_n)
    : pagesPerBucket_(std::max<std::uint64_t>(pages_per_bucket, 1)),
      topN_(top_n)
{
}

void
ProfileCollector::addKernel(BottleneckProfile profile)
{
    kernels_.push_back(std::move(profile));
}

ProfileReport
ProfileCollector::finalize() const
{
    ProfileReport report;
    report.kernels = kernels_;
    report.pagesPerBucket = pagesPerBucket_;
    report.totalHotBuckets = heat_.size();

    // Top-N buckets by remote-write traffic; ties broken by forward
    // count, then ascending VPN for determinism.
    std::vector<std::pair<std::uint64_t, PageHeat>> rows(heat_.begin(),
                                                         heat_.end());
    std::sort(rows.begin(), rows.end(), [](const auto& a, const auto& b) {
        if (a.second.rwqBytes != b.second.rwqBytes)
            return a.second.rwqBytes > b.second.rwqBytes;
        if (a.second.remoteWritesForwarded !=
            b.second.remoteWritesForwarded)
            return a.second.remoteWritesForwarded >
                   b.second.remoteWritesForwarded;
        return a.first < b.first;
    });
    if (rows.size() > topN_)
        rows.resize(topN_);
    for (const auto& [bucket, heat] : rows) {
        HotPage page;
        page.firstVpn = bucket * pagesPerBucket_;
        page.pages = pagesPerBucket_;
        if (regionResolver_)
            page.region = regionResolver_(page.firstVpn);
        page.heat = heat;
        report.hotPages.push_back(std::move(page));
    }

    const auto named = [](const char* name, const char* unit,
                          const LogHistogram& hist) {
        return NamedHistogram{name, unit, hist};
    };
    report.histograms.push_back(
        named("rwq_occupancy", "entries", rwqOccupancy_));
    report.histograms.push_back(
        named("rwq_drain_residency", "inserts", rwqDrainResidency_));
    report.histograms.push_back(named("link_busy", "ticks", linkBusy_));
    return report;
}

namespace
{

void
writeHistogram(JsonWriter& w, const NamedHistogram& h)
{
    w.beginObject();
    w.field("name", h.name);
    w.field("unit", h.unit);
    w.field("count", h.hist.count());
    w.field("sum", h.hist.sum());
    w.field("min", h.hist.min());
    w.field("max", h.hist.max());
    w.field("mean", h.hist.mean());
    w.field("p50", h.hist.percentile(0.50));
    w.field("p90", h.hist.percentile(0.90));
    w.field("p99", h.hist.percentile(0.99));
    // Sparse bucket dump: [low, high, count] per non-empty bucket.
    w.key("buckets").beginArray();
    for (std::size_t b = 0; b < LogHistogram::numBuckets; ++b) {
        const std::uint64_t n = h.hist.buckets()[b];
        if (n == 0)
            continue;
        w.beginArray();
        w.value(LogHistogram::bucketLow(b));
        w.value(LogHistogram::bucketHigh(b));
        w.value(n);
        w.endArray();
    }
    w.endArray();
    w.endObject();
}

} // namespace

std::string
profileToJson(const ProfileReport& report)
{
    JsonWriter w;
    w.beginObject();

    w.key("kernels").beginArray();
    for (const BottleneckProfile& k : report.kernels) {
        const auto names = BottleneckProfile::componentNames();
        const auto terms = k.components();
        const auto shares = k.shares();
        w.beginObject();
        w.field("phase", k.phase);
        w.field("gpu", static_cast<std::uint64_t>(k.kernel.gpu));
        w.field("total_ticks", k.kernel.gpuTime);
        w.field("limiter", k.limiter());
        w.key("ticks").beginObject();
        for (std::size_t i = 0; i < names.size(); ++i)
            w.field(names[i], static_cast<std::uint64_t>(terms[i]));
        w.endObject();
        w.key("shares").beginObject();
        for (std::size_t i = 0; i < names.size(); ++i)
            w.field(names[i], shares[i]);
        w.endObject();
        w.key("bandwidth").beginObject();
        w.field("dram_bytes", k.dramBytes);
        w.field("egress_bytes", k.kernel.egressBytes);
        w.field("ingress_bytes", k.kernel.ingressBytes);
        w.field("achieved_dram_bps", k.achievedDramBps());
        w.field("peak_dram_bps", k.peakDramBps);
        w.field("achieved_link_bps", k.achievedLinkBps());
        w.field("peak_link_bps", k.peakLinkBps);
        w.endObject();
        w.endObject();
    }
    w.endArray();

    w.key("hot_pages").beginObject();
    w.field("pages_per_bucket", report.pagesPerBucket);
    w.field("total_buckets", report.totalHotBuckets);
    w.key("top").beginArray();
    for (const HotPage& page : report.hotPages) {
        w.beginObject();
        w.field("first_vpn", static_cast<std::uint64_t>(page.firstVpn));
        w.field("pages", page.pages);
        w.field("region", page.region);
        w.field("remote_writes_forwarded",
                page.heat.remoteWritesForwarded);
        w.field("rwq_bytes", page.heat.rwqBytes);
        w.field("sub_flips", page.heat.subFlips);
        w.field("migrations", page.heat.migrations);
        w.endObject();
    }
    w.endArray();
    w.endObject();

    w.key("histograms").beginArray();
    for (const NamedHistogram& h : report.histograms)
        writeHistogram(w, h);
    w.endArray();

    w.endObject();
    return w.str();
}

} // namespace gps
