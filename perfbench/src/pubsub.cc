#include "pubsub.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "apps/app_common.hh"
#include "common/rng.hh"

namespace perfbench
{

using namespace gps;

namespace
{

/**
 * 256 pages of 64 KB span 16 MB, eight times the 2 MB GPS-TLB reach
 * (32 entries). 256 lines per page touch 8 MB in all, more than the
 * 6 MB L2. The page count is what a 64-GPU memcpy run pays for (each
 * page is broadcast to every peer), which keeps that run near 3 s.
 */
constexpr std::size_t basePages = 256;
constexpr std::uint64_t linesPerPage = 256;
constexpr std::uint64_t instrsPerAccess = 64;

} // namespace

void
PubSubWorkload::setup(WorkloadContext& ctx)
{
    gpus_ = ctx.numGpus();
    pageBytes_ = ctx.pageBytes();
    const std::size_t count = std::max<std::size_t>(
        gpus_, static_cast<std::size_t>(std::llround(
                   static_cast<double>(basePages) * scale_)));
    base_ = ctx.allocShared(count * pageBytes_, "pubsub.pages");

    Rng rng(seed_);
    const double log_span = std::log(static_cast<double>(gpus_ + 1));
    std::vector<GpuId> order(gpus_);
    pages_.assign(count, SharedPage{});
    for (SharedPage& page : pages_) {
        page.producer = static_cast<GpuId>(rng.below(gpus_));
        const std::size_t degree = std::clamp<std::size_t>(
            static_cast<std::size_t>(std::exp(rng.uniform() * log_span)),
            1, gpus_);
        std::iota(order.begin(), order.end(), GpuId{0});
        for (std::size_t i = 0; i < degree; ++i)
            std::swap(order[i], order[i + rng.below(gpus_ - i)]);
        page.subscribers.assign(order.begin(),
                                order.begin() +
                                    static_cast<std::ptrdiff_t>(degree));
        std::sort(page.subscribers.begin(), page.subscribers.end());
    }
}

Addr
PubSubWorkload::pageBase(std::size_t page) const
{
    return base_ + page * pageBytes_;
}

std::vector<Phase>
PubSubWorkload::iteration(std::size_t iter, WorkloadContext& ctx)
{
    (void)iter;
    (void)ctx;
    const std::int64_t stride =
        static_cast<std::int64_t>(pageBytes_ / linesPerPage);
    std::vector<std::vector<apps::Group>> publish(gpus_);
    std::vector<std::vector<apps::Group>> consume(gpus_);
    Phase pub;
    pub.name = "pubsub.publish";
    for (std::size_t p = 0; p < pages_.size(); ++p) {
        const SharedPage& page = pages_[p];
        const Addr base = pageBase(p);
        publish[page.producer].push_back(apps::Group{{apps::Burst{
            base, linesPerPage, stride, AccessType::Store,
            apps::lineBytes, Scope::Weak}}});
        pub.barrierBroadcasts.push_back(
            BroadcastRange{page.producer, base, pageBytes_});
        for (const GpuId gpu : page.subscribers)
            consume[gpu].push_back(apps::Group{{apps::Burst{
                base, linesPerPage, stride, AccessType::Load,
                apps::lineBytes, Scope::Weak}}});
    }

    Phase sub;
    sub.name = "pubsub.consume";
    auto launch = [&](Phase& phase, std::vector<apps::Group>& groups,
                      GpuId gpu) {
        KernelLaunch kernel;
        kernel.gpu = gpu;
        kernel.name = phase.name;
        kernel.computeInstrs =
            groups.size() * linesPerPage * instrsPerAccess;
        kernel.stream = apps::makeGroupStream(std::move(groups));
        phase.kernels.push_back(std::move(kernel));
    };
    for (std::size_t g = 0; g < gpus_; ++g) {
        launch(pub, publish[g], static_cast<GpuId>(g));
        launch(sub, consume[g], static_cast<GpuId>(g));
    }
    std::vector<Phase> phases;
    phases.push_back(std::move(pub));
    phases.push_back(std::move(sub));
    return phases;
}

AccessCounts
PubSubWorkload::perIteration() const
{
    AccessCounts counts;
    for (const SharedPage& page : pages_) {
        counts.stores += linesPerPage;
        counts.loads += page.subscribers.size() * linesPerPage;
    }
    counts.accesses = counts.loads + counts.stores;
    return counts;
}

} // namespace perfbench
