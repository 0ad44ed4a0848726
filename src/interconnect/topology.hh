/**
 * @file
 * Switch-based all-to-all interconnect topology plus per-phase traffic
 * accounting.
 *
 * Every GPU attaches to a central switch through one full-duplex link
 * (egress + ingress modeled separately). Contention therefore appears when
 * one GPU broadcasts to many subscribers (egress serialization) or when
 * many GPUs target one destination (ingress serialization) — the
 * first-order effects behind all of the paper's bandwidth results.
 */

#ifndef GPS_INTERCONNECT_TOPOLOGY_HH
#define GPS_INTERCONNECT_TOPOLOGY_HH

#include <cstdint>
#include <memory>
#include <unordered_map>
#include <vector>

#include "common/types.hh"
#include "interconnect/link.hh"
#include "interconnect/pcie.hh"
#include "obs/probes.hh"
#include "sim/sim_object.hh"
#include "snapshot/serial.hh"

namespace gps
{

struct FaultReport;

/** Health of the switched path between one pair of GPUs. */
enum class PathHealth : std::uint8_t {
    Healthy,  ///< Full bandwidth.
    Degraded, ///< Working at a fraction of nominal bandwidth.
    Down,     ///< Carries no traffic; flows must reroute.
};

/** Fault state of one GPU pair's path. */
struct PathState
{
    PathHealth health = PathHealth::Healthy;

    /** Usable bandwidth fraction while Degraded, in (0, 1]. */
    double factor = 1.0;
};

/**
 * Per-phase source->destination byte matrix. Wire bytes (payload plus
 * protocol headers) drive timing; payload bytes are tracked separately
 * because the paper's Figure 10 reports data moved, not wire occupancy.
 */
class TrafficMatrix
{
  public:
    explicit TrafficMatrix(std::size_t num_gpus)
        : n_(num_gpus), bytes_(num_gpus * num_gpus, 0)
    {}

    /**
     * Account a transfer.
     * @param bytes wire bytes (payload + headers)
     * @param payload payload bytes; defaults to @p bytes
     */
    void
    add(GpuId src, GpuId dst, std::uint64_t bytes,
        std::uint64_t payload = std::uint64_t(-1))
    {
        bytes_[src * n_ + dst] += bytes;
        payload_ += payload == std::uint64_t(-1) ? bytes : payload;
    }

    std::uint64_t
    at(GpuId src, GpuId dst) const
    {
        return bytes_[src * n_ + dst];
    }

    /** Total payload bytes recorded. */
    std::uint64_t payload() const { return payload_; }

    /** Total bytes leaving @p src. */
    std::uint64_t egress(GpuId src) const;

    /** Total bytes arriving at @p dst. */
    std::uint64_t ingress(GpuId dst) const;

    /** Total bytes moved. */
    std::uint64_t total() const;

    std::size_t numGpus() const { return n_; }

    void clear();

    /**
     * Remove and return the wire bytes of one cell without touching the
     * payload total; used by fault rerouting, which moves wire occupancy
     * but not the "data moved" metric.
     */
    std::uint64_t takeWire(GpuId src, GpuId dst);

    /** Add wire bytes without affecting the payload total. */
    void
    addWire(GpuId src, GpuId dst, std::uint64_t bytes)
    {
        bytes_[src * n_ + dst] += bytes;
    }

  private:
    std::size_t n_;
    std::vector<std::uint64_t> bytes_;
    std::uint64_t payload_ = 0;
};

/** The system interconnect: one full-duplex link per GPU, via a switch. */
class Topology : public SimObject
{
  public:
    /**
     * @param bandwidth_scale what-if multiplier on the spec's link
     *        bandwidth; at exactly 1.0 the topology keeps pointing at
     *        the static spec (byte-identical fast path).
     * @param probes observers fed by applyPhaseTraffic: per-link
     *        transfers as timeline events at the recorder's current
     *        stamp, link busy time, link->RWQ-insert causal edges
     */
    Topology(std::string name, std::size_t num_gpus,
             InterconnectKind kind, double bandwidth_scale = 1.0,
             const Probes* probes = &noProbes);

    ~Topology() override = default;

    const InterconnectSpec& spec() const { return *spec_; }
    std::size_t numGpus() const { return numGpus_; }

    Link& egressLink(GpuId gpu) { return *egress_.at(gpu); }
    Link& ingressLink(GpuId gpu) { return *ingress_.at(gpu); }

    /**
     * Account a phase's traffic matrix against the links and return the
     * time the busiest link needs: max over GPUs of
     * max(egress_time, ingress_time).
     */
    virtual Tick applyPhaseTraffic(const TrafficMatrix& traffic);

    /**
     * Time @p gpu needs to push its share of @p traffic out: the egress
     * link serialization, plus (in tiered topologies) any shared uplink
     * serialization its cross-node flows contend for.
     */
    virtual Tick
    egressTime(const TrafficMatrix& traffic, GpuId gpu) const
    {
        return linkTime(traffic.egress(gpu));
    }

    /** Ingress-side counterpart of egressTime. */
    virtual Tick
    ingressTime(const TrafficMatrix& traffic, GpuId gpu) const
    {
        return linkTime(traffic.ingress(gpu));
    }

    /** Time to move @p bytes over one link direction. */
    Tick linkTime(std::uint64_t bytes) const;

    /** One-way message latency. */
    Tick latency() const { return spec_->latency; }

    /** Lifetime wire bytes moved over the whole interconnect. */
    std::uint64_t totalBytes() const { return totalBytes_; }

    /** Lifetime payload bytes (the Figure 10 "data moved" metric). */
    std::uint64_t totalPayloadBytes() const { return totalPayload_; }

    // --- Fault state (see src/fault/) ---

    /**
     * Set the health of the path between @p a and @p b (symmetric).
     * Healthy erases the entry, so a fault-free topology stays fault-free
     * in the fast-path check below.
     */
    void setPathState(GpuId a, GpuId b, PathHealth health,
                      double factor = 1.0);

    /** Current state of the pair's path (Healthy when never faulted). */
    PathState pathState(GpuId a, GpuId b) const;

    /** Whether any path currently carries fault state. */
    bool anyPathFault() const { return !paths_.empty(); }

    /** Allow/forbid host-staged PCIe fallback for dead partitions. */
    void setPcieFallback(bool allow) { pcieFallback_ = allow; }

    /**
     * Rewrite @p traffic so no flow crosses a Down path and Degraded
     * paths pay their bandwidth penalty as inflated wire bytes. Down
     * flows move to a relay GPU when one is reachable, else to the PCIe
     * fallback; fatal when a partition is unreachable and the fallback is
     * disabled. No-op when no path carries fault state.
     */
    void routeAroundFaults(TrafficMatrix& traffic,
                           FaultReport& report) const;

    /**
     * Link accounting, lifetime totals, and fault path state (in path
     * key order: the unordered map feeds only key-addressed lookups,
     * but snapshot bytes must be deterministic).
     */
    virtual void
    transferState(snapshot::StateIO& io)
    {
        io.section("topology");
        io.expect(numGpus_,
                  "snapshot GPU count differs from the configured "
                  "topology");
        for (auto& link : egress_)
            link->transferState(io);
        for (auto& link : ingress_)
            link->transferState(io);
        io.u64(totalBytes_);
        io.u64(totalPayload_);
        io.sortedKeys(paths_, 1ULL << 32,
                      [&io](std::uint32_t& key, PathState& st) {
                          io.u32(key);
                          transferPathState(io, st);
                      });
        io.b(pcieFallback_);
    }

  protected:
    void declareStats(StatVisitor& v) const override;

    /**
     * One path's health and bandwidth factor. A corrupt or hand-edited
     * snapshot must not resume with an out-of-range health (every
     * switch over the health would be undefined behavior).
     */
    static void
    transferPathState(snapshot::StateIO& io, PathState& st)
    {
        auto raw = static_cast<std::uint8_t>(st.health);
        io.u8(raw);
        if (raw > static_cast<std::uint8_t>(PathHealth::Down))
            throw snapshot::SnapshotError(
                "corrupt snapshot: path health value out of range");
        st.health = static_cast<PathHealth>(raw);
        io.f64(st.factor);
    }

    static std::uint32_t
    pathKey(GpuId a, GpuId b)
    {
        const std::uint32_t lo = a < b ? a : b;
        const std::uint32_t hi = a < b ? b : a;
        return (lo << 16) | hi;
    }

    /** First GPU both endpoints can still reach; invalidGpu if none. */
    GpuId findRelay(GpuId src, GpuId dst) const;

    std::size_t numGpus_;

    /** Scaled copy backing spec_ when bandwidth_scale != 1.0. */
    InterconnectSpec ownedSpec_;
    const InterconnectSpec* spec_;
    std::vector<std::unique_ptr<Link>> egress_;
    std::vector<std::unique_ptr<Link>> ingress_;
    std::uint64_t totalBytes_ = 0;
    std::uint64_t totalPayload_ = 0;
    std::unordered_map<std::uint32_t, PathState> paths_;
    bool pcieFallback_ = true;
    const Probes* probes_;
};

} // namespace gps

#endif // GPS_INTERCONNECT_TOPOLOGY_HH
