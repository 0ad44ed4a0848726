#include "driver/driver.hh"

#include "common/logging.hh"
#include "obs/causal/causal.hh"
#include "obs/metric_registry.hh"
#include "obs/profile.hh"
#include "obs/timeline.hh"

namespace gps
{

Driver::Driver(AddressSpace& vas,
               std::vector<std::unique_ptr<GpuModel>>& gpus,
               Topology& topology, const Probes* probes)
    : SimObject("driver"), vas_(&vas), gpus_(&gpus), topology_(&topology),
      probes_(probes)
{
    gps_assert(gpus.size() <= maxGpus, "too many GPUs for GpuMask");
    for (std::size_t g = 0; g < gpus.size(); ++g) {
        pageTables_.push_back(std::make_unique<PageTable>(
            "gpu" + std::to_string(g) + ".page_table"));
    }
}

const Region&
Driver::allocCommon(std::uint64_t size, MemKind kind, std::string label,
                    GpuId home, bool manual)
{
    gps_assert(home < numGpus(), "allocation on unknown GPU ", home);
    const Region& region =
        vas_->allocate(size, kind, std::move(label), home, manual);
    const PageGeometry& geo = geometry();
    const PageNum first = geo.pageNum(region.base);
    const PageNum last = geo.pageNum(region.base + region.size - 1);
    PageState init;
    init.kind = kind;
    pages_.addRange(first, static_cast<std::size_t>(last - first + 1),
                    init);
    return region;
}

const Region&
Driver::malloc(std::uint64_t size, GpuId home, std::string label)
{
    const Region& region =
        allocCommon(size, MemKind::Pinned, std::move(label), home, false);
    forEachPage(region, [&](PageNum vpn) {
        const bool ok = backPage(vpn, home);
        if (!ok)
            gps_fatal("GPU ", home, " out of memory backing pinned page");
        for (GpuId g = 0; g < numGpus(); ++g) {
            if (g != home)
                mapPeer(vpn, g, home);
        }
    });
    return region;
}

const Region&
Driver::mallocManaged(std::uint64_t size, std::string label, GpuId home)
{
    // Pages stay unbacked: first touch allocates (UM policy).
    return allocCommon(size, MemKind::Managed, std::move(label), home,
                       false);
}

const Region&
Driver::mallocGps(std::uint64_t size, std::string label, GpuId home,
                  bool manual)
{
    const Region& region =
        allocCommon(size, MemKind::Gps, std::move(label), home, manual);
    forEachPage(region, [&](PageNum vpn) {
        // "backs it with physical memory in at least one GPU" (§4).
        const bool ok = backPage(vpn, home);
        if (!ok)
            gps_fatal("GPU ", home, " out of memory backing GPS page");
        PageState& st = state(vpn);
        st.subscribers = gpuBit(home);
        st.location = home;
    });
    return region;
}

const Region&
Driver::mallocReplicated(std::uint64_t size, std::string label, GpuId home)
{
    const Region& region = allocCommon(size, MemKind::Replicated,
                                       std::move(label), home, false);
    forEachPage(region, [&](PageNum vpn) {
        for (GpuId g = 0; g < numGpus(); ++g) {
            const bool ok = backPage(vpn, g);
            if (!ok)
                gps_fatal("GPU ", g, " out of memory replicating page");
        }
        state(vpn).location = home;
    });
    return region;
}

void
Driver::free(Addr base)
{
    const Region* region = vas_->regionAt(base);
    gps_assert(region != nullptr, "free of unknown region ", base);
    forEachPage(*region, [&](PageNum vpn) {
        PageState& st = state(vpn);
        maskForEach(st.backed, [&](GpuId g) {
            const Pte* pte = pageTable(g).lookup(vpn);
            if (pte != nullptr && pte->location == g)
                gpu(g).memory().freeFrame(pte->ppn);
        });
        maskForEach(st.mapped, [&](GpuId g) {
            pageTable(g).unmap(vpn);
            gpu(g).tlb().invalidate(vpn);
        });
    });
    pages_.removeRange(geometry().pageNum(region->base));
    vas_->release(base);
}

void
Driver::advisePreferredLocation(Addr base, std::uint64_t len, GpuId gpu_id)
{
    forEachPageIn(base, len,
                  [&](PageState& st) { st.preferredLocation = gpu_id; });
}

void
Driver::adviseAccessedBy(Addr base, std::uint64_t len, GpuId gpu_id)
{
    forEachPageIn(base, len, [&](PageState& st) {
        st.accessedBy = maskSet(st.accessedBy, gpu_id);
    });
}

void
Driver::adviseReadMostly(Addr base, std::uint64_t len)
{
    forEachPageIn(base, len, [&](PageState& st) { st.readMostly = true; });
}

bool
Driver::backPage(PageNum vpn, GpuId gpu_id)
{
    PageState& st = state(vpn);
    gps_assert(!maskHas(st.backed, gpu_id),
               "page ", vpn, " already backed on GPU ", gpu_id);
    auto ppn = gpu(gpu_id).memory().allocFrame();
    if (!ppn.has_value() && reclaim_ && reclaim_(gpu_id)) {
        ++reclaims_;
        ppn = gpu(gpu_id).memory().allocFrame();
    }
    if (!ppn.has_value())
        return false;
    pageTable(gpu_id).map(vpn, Pte{*ppn, gpu_id, st.gpsBitSet});
    st.backed = maskSet(st.backed, gpu_id);
    st.mapped = maskSet(st.mapped, gpu_id);
    if (st.location == invalidGpu)
        st.location = gpu_id;
    return true;
}

void
Driver::mapPeer(PageNum vpn, GpuId gpu_id, GpuId owner)
{
    PageState& st = state(vpn);
    const Pte* owner_pte = pageTable(owner).lookup(vpn);
    gps_assert(owner_pte != nullptr && owner_pte->location == owner,
               "peer mapping target not backed on owner GPU");
    pageTable(gpu_id).map(vpn, Pte{owner_pte->ppn, owner, st.gpsBitSet});
    st.mapped = maskSet(st.mapped, gpu_id);
}

void
Driver::unmapPage(PageNum vpn, GpuId gpu_id, KernelCounters* counters)
{
    PageState& st = state(vpn);
    if (!maskHas(st.mapped, gpu_id))
        return;
    pageTable(gpu_id).unmap(vpn);
    if (gpu(gpu_id).tlb().contains(vpn)) {
        gpu(gpu_id).tlb().invalidate(vpn);
        ++shootdownRounds_;
        if (counters != nullptr)
            ++counters->tlbShootdowns;
    }
    st.mapped = maskClear(st.mapped, gpu_id);
}

void
Driver::unbackPage(PageNum vpn, GpuId gpu_id, KernelCounters* counters)
{
    PageState& st = state(vpn);
    if (!maskHas(st.backed, gpu_id))
        return;
    const Pte* pte = pageTable(gpu_id).lookup(vpn);
    gps_assert(pte != nullptr && pte->location == gpu_id,
               "backed page lacks a local mapping");
    gpu(gpu_id).memory().freeFrame(pte->ppn);
    unmapPage(vpn, gpu_id, counters);
    st.backed = maskClear(st.backed, gpu_id);
}

void
Driver::migratePage(PageNum vpn, GpuId to, KernelCounters& counters,
                    TrafficMatrix& traffic)
{
    PageState& st = state(vpn);
    const GpuId from = st.location;
    gps_assert(from != invalidGpu, "migrating unbacked page ", vpn);
    if (from == to)
        return;

    const std::uint64_t page_bytes = pageBytes();
    const Addr page_base = geometry().pageBase(vpn);

    // The old owner's cached lines are stale after the move.
    gpu(from).l2().invalidatePage(page_base, page_bytes);

    // One shootdown round invalidates every mapper's cached translation.
    bool any_tlb = false;
    maskForEach(st.mapped, [&](GpuId g) {
        if (gpu(g).tlb().contains(vpn)) {
            gpu(g).tlb().invalidate(vpn);
            any_tlb = true;
        }
    });
    if (any_tlb) {
        ++shootdownRounds_;
        ++counters.tlbShootdowns;
    }

    // Move the frame.
    if (!maskHas(st.backed, to)) {
        const auto ppn = gpu(to).memory().allocFrame();
        if (!ppn.has_value())
            gps_fatal("GPU ", to, " out of memory during migration");
        pageTable(to).map(vpn, Pte{*ppn, to, st.gpsBitSet});
        st.backed = maskSet(st.backed, to);
        st.mapped = maskSet(st.mapped, to);
    } else {
        // Destination already holds a (stale) replica; refresh mapping.
        Pte* pte = pageTable(to).lookupMutable(vpn);
        gps_assert(pte != nullptr, "replica without mapping");
    }
    const Pte* from_pte = pageTable(from).lookup(vpn);
    gps_assert(from_pte != nullptr && from_pte->location == from,
               "migration source not backed");
    gpu(from).memory().freeFrame(from_pte->ppn);
    pageTable(from).unmap(vpn);
    st.backed = maskClear(st.backed, from);
    st.mapped = maskClear(st.mapped, from);
    st.location = to;

    // Any other peer mappings now point at the new owner.
    maskForEach(st.mapped, [&](GpuId g) {
        if (g != to)
            mapPeer(vpn, g, to);
    });

    traffic.add(from, to, page_bytes + topology_->spec().headerBytes,
                page_bytes);
    ++migrations_;
    ++counters.pageMigrations;
    counters.migrationBytes += page_bytes;
    if (probes_->profile != nullptr)
        probes_->profile->noteMigration(vpn);
    if (probes_->causal != nullptr)
        probes_->causal->noteDep(CausalEdge::MigrationToStall);
    if (probes_->recorder != nullptr)
        probes_->recorder->instantNow(
            TimelineRecorder::driverTid, "migrate", "driver",
            {{"vpn", static_cast<double>(vpn)},
             {"from", static_cast<double>(from)},
             {"to", static_cast<double>(to)}});
}

void
Driver::exportStats(StatSet& out) const
{
    out.set("driver.pages", static_cast<double>(pages_.pages()));
    out.set("driver.migrations", static_cast<double>(migrations_));
    out.set("driver.shootdown_rounds",
            static_cast<double>(shootdownRounds_));
    out.set("driver.reclaims", static_cast<double>(reclaims_));
    for (const auto& pt : pageTables_)
        pt->exportStats(out);
}

void
Driver::registerMetrics(MetricRegistry& reg) const
{
    reg.gauge("driver.pages", "pages",
              [this] { return static_cast<double>(pages_.pages()); });
    reg.counter("driver.migrations", "pages",
                [this] { return static_cast<double>(migrations_); });
    reg.counter("driver.shootdown_rounds", "rounds", [this] {
        return static_cast<double>(shootdownRounds_);
    });
    reg.counter("driver.reclaims", "frames",
                [this] { return static_cast<double>(reclaims_); });
    for (const auto& pt : pageTables_)
        pt->registerMetrics(reg);
}

void
Driver::saveState(snapshot::Serializer& out) const
{
    out.section("driver");
    out.u64(pageTables_.size());
    for (const auto& pt : pageTables_)
        pt->saveState(out);
    pages_.saveState(out);
    out.u64(migrations_);
    out.u64(shootdownRounds_);
    out.u64(reclaims_);
}

void
Driver::restoreState(snapshot::Deserializer& in)
{
    in.section("driver");
    if (in.u64() != pageTables_.size())
        throw snapshot::SnapshotError(
            "snapshot GPU count differs from the configured system");
    for (auto& pt : pageTables_)
        pt->restoreState(in);
    pages_.restoreState(in);
    migrations_ = in.u64();
    shootdownRounds_ = in.u64();
    reclaims_ = in.u64();
}

} // namespace gps
