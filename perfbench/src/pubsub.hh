/**
 * @file
 * PubSub: a seeded publish-subscribe sharing pattern written against
 * the public Workload API, in the style of examples/custom_workload.cpp.
 *
 * Every shared page gets one producer and a subscriber set drawn from
 * the seed. Subscriber counts are log-uniform over 1..G, so nearly
 * every page has its own subscriber mask, unlike the few masks of the
 * bundled all-to-all and halo apps. Each iteration has a
 * publish phase (producers store to their pages) and a consume phase
 * (subscribers load them). The simulator only ever sees the generated
 * access streams.
 */

#ifndef PERFBENCH_PUBSUB_HH
#define PERFBENCH_PUBSUB_HH

#include <cstdint>
#include <vector>

#include "apps/workload.hh"

namespace perfbench
{

/** Accesses a workload emits, split by kind. */
struct AccessCounts
{
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;

    bool operator==(const AccessCounts&) const = default;
};

/** Seeded publish-subscribe workload. */
class PubSubWorkload : public gps::Workload
{
  public:
    explicit PubSubWorkload(std::uint64_t seed) : seed_(seed) {}

    std::string name() const override { return "PubSub"; }
    std::string description() const override
    {
        return "Seeded producer/subscriber sets over shared pages";
    }
    std::string commPattern() const override
    {
        return "Publish-subscribe";
    }
    std::size_t effectiveIterations() const override { return 100; }

    void setup(gps::WorkloadContext& ctx) override;
    std::vector<gps::Phase> iteration(std::size_t iter,
                                      gps::WorkloadContext& ctx) override;

    /** What one iteration emits; valid after setup(). */
    AccessCounts perIteration() const;

  private:
    struct SharedPage
    {
        gps::GpuId producer = 0;
        std::vector<gps::GpuId> subscribers;
    };

    gps::Addr pageBase(std::size_t page) const;

    std::uint64_t seed_;
    std::size_t gpus_ = 0;
    std::uint64_t pageBytes_ = 0;
    gps::Addr base_ = 0;
    std::vector<SharedPage> pages_;
};

} // namespace perfbench

#endif // PERFBENCH_PUBSUB_HH
