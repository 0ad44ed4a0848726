#include "api/system.hh"

#include "common/logging.hh"
#include "interconnect/node_topology.hh"
#include "obs/metric_registry.hh"

namespace gps
{

MultiGpuSystem::MultiGpuSystem(const SystemConfig& config)
    : config_(config), vas_(PageGeometry(config.pageBytes))
{
    gps_assert(config.numGpus >= 1 && config.numGpus <= maxGpus,
               "unsupported GPU count ", config.numGpus);
    for (std::size_t g = 0; g < config.numGpus; ++g) {
        gpus_.push_back(std::make_unique<GpuModel>(
            static_cast<GpuId>(g), config.gpu,
            PageGeometry(config.pageBytes)));
    }
    // numNodes == 1 constructs the plain flat topology rather than a
    // degenerate NodeTopology, keeping single-node runs byte-identical
    // to builds without the node tier.
    if (config.numNodes > 1) {
        if (config.numGpus % config.numNodes != 0)
            gps_fatal("GPU count ", config.numGpus,
                      " not divisible by node count ", config.numNodes);
        topology_ = std::make_unique<NodeTopology>(
            "interconnect", config.numGpus, config.numNodes,
            config.interconnect, config.interNode,
            config.linkBandwidthScale, &probes_);
    } else {
        topology_ = std::make_unique<Topology>(
            "interconnect", config.numGpus, config.interconnect,
            config.linkBandwidthScale, &probes_);
    }
    driver_ = std::make_unique<Driver>(vas_, gpus_, *topology_, &probes_);
}

void
MultiGpuSystem::advanceTo(Tick when)
{
    gps_assert(when >= now_, "clock moved backwards (", when, " < ",
               now_, ")");
    now_ = when;
}

ConfigDump
MultiGpuSystem::configDump() const
{
    const GpuConfig& g = config_.gpu;
    const GpsConfig& s = config_.gps;
    ConfigDump dump;

    dump.section("GPU Parameters");
    dump.entry("Cache block size",
               std::to_string(g.cacheLineBytes) + " bytes");
    dump.entry("Global memory",
               std::to_string(g.globalMemoryBytes / GiB) + " GB");
    dump.entry("Streaming multiprocessors (SM)",
               static_cast<std::uint64_t>(g.numSms));
    dump.entry("CUDA cores/SM",
               static_cast<std::uint64_t>(g.cudaCoresPerSm));
    dump.entry("L2 Cache size",
               std::to_string(g.l2CacheBytes / MiB) + " MB");
    dump.entry("Warp size", static_cast<std::uint64_t>(g.warpSize));
    dump.entry("Maximum threads per SM",
               static_cast<std::uint64_t>(g.maxThreadsPerSm));
    dump.entry("Maximum threads per CTA",
               static_cast<std::uint64_t>(g.maxThreadsPerCta));

    dump.section("GPS Structures");
    dump.entry("Remote write queue",
               std::to_string(s.wqEntries) + " entries");
    dump.entry("Remote write queue entry size",
               std::to_string(s.wqEntryBytes) + " bytes");
    dump.entry("TLB", std::to_string(s.gpsTlbWays) +
                          "-way set associative");
    dump.entry("TLB size", std::to_string(s.gpsTlbEntries) + " entries");
    dump.entry("Virtual address",
               std::to_string(g.virtualAddressBits) + " bits");
    dump.entry("Physical address",
               std::to_string(g.physicalAddressBits) + " bits");

    dump.section("System");
    dump.entry("GPUs", static_cast<std::uint64_t>(config_.numGpus));
    dump.entry("Interconnect", to_string(config_.interconnect));
    if (config_.numNodes > 1) {
        dump.entry("Nodes", static_cast<std::uint64_t>(config_.numNodes));
        dump.entry("Inter-node fabric", to_string(config_.interNode));
    }
    dump.entry("Page size", std::to_string(config_.pageBytes / KiB) +
                                " KB");
    return dump;
}

StatSet
MultiGpuSystem::stats() const
{
    StatSet out;
    for (const auto& gpu : gpus_)
        gpu->exportStats(out);
    topology_->exportStats(out);
    driver_->exportStats(out);
    return out;
}

void
MultiGpuSystem::registerMetrics(MetricRegistry& reg) const
{
    for (const auto& gpu : gpus_)
        gpu->registerMetrics(reg);
    topology_->registerMetrics(reg);
    driver_->registerMetrics(reg);
}

void
MultiGpuSystem::resetStats()
{
    for (auto& gpu : gpus_)
        gpu->resetStats();
    topology_->resetStats();
}

} // namespace gps
