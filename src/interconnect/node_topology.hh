/**
 * @file
 * Hierarchical two-tier interconnect: NVLink/NVSwitch islands per node,
 * joined by a thinner inter-node fabric (InfiniBand / PCIe fabric).
 *
 * GPUs [0, gpusPerNode) form node 0, the next gpusPerNode form node 1,
 * and so on. Intra-node flows behave exactly like the flat switched
 * topology; a cross-node flow additionally serializes through its source
 * node's uplink egress and the destination node's uplink ingress — one
 * shared full-duplex uplink per node, so every GPU in a node contends
 * for the same inter-node bandwidth (the first-order effect that makes
 * hierarchical subscription pay off past one node).
 *
 * Fault injection works at both tiers: the inherited per-GPU-pair
 * `setPathState`/`routeAroundFaults` machinery covers the intra-node
 * tier, and `setUplinkState` degrades or downs a node's uplink (a Down
 * uplink falls back to host-staged PCIe like an unreachable GPU pair).
 */

#ifndef GPS_INTERCONNECT_NODE_TOPOLOGY_HH
#define GPS_INTERCONNECT_NODE_TOPOLOGY_HH

#include "interconnect/topology.hh"

namespace gps
{

/** Two-tier topology: per-node switched islands plus node uplinks. */
class NodeTopology : public Topology
{
  public:
    /**
     * @param num_nodes must divide @p num_gpus evenly
     * @param inter_kind the uplink fabric (see interNodeFabrics())
     * @param bandwidth_scale what-if multiplier applied to both tiers
     */
    NodeTopology(std::string name, std::size_t num_gpus,
                 std::size_t num_nodes, InterconnectKind intra_kind,
                 InterconnectKind inter_kind,
                 double bandwidth_scale = 1.0,
                 const Probes* probes = &noProbes);

    std::size_t numNodes() const { return numNodes_; }
    std::size_t gpusPerNode() const { return gpusPerNode_; }

    /** Node hosting @p gpu. */
    std::size_t
    nodeOf(GpuId gpu) const
    {
        return gpu / gpusPerNode_;
    }

    /** The inter-node fabric spec (post bandwidth scaling). */
    const InterconnectSpec& interSpec() const { return *interSpec_; }

    Link& uplinkEgress(std::size_t node) { return *upEgress_.at(node); }
    Link& uplinkIngress(std::size_t node) { return *upIngress_.at(node); }

    /** Lifetime wire bytes sent from node @p src to node @p dst. */
    std::uint64_t
    crossNodeBytes(std::size_t src, std::size_t dst) const
    {
        return cross_.at(src * numNodes_ + dst);
    }

    /** Lifetime wire bytes over all uplinks. */
    std::uint64_t totalCrossNodeBytes() const;

    // --- Tier-2 fault state ---

    /**
     * Set the health of one node's uplink (both directions). Degraded
     * uplinks move the same bytes at factor x bandwidth; a Down uplink
     * falls back to the host-staged PCIe path (or is fatal when the
     * fallback is disabled).
     */
    void setUplinkState(std::size_t node, PathHealth health,
                        double factor = 1.0);

    /** Current uplink state (Healthy when never faulted). */
    PathState
    uplinkState(std::size_t node) const
    {
        return uplinkFaults_.at(node);
    }

    Tick applyPhaseTraffic(const TrafficMatrix& traffic) override;
    Tick egressTime(const TrafficMatrix& traffic,
                    GpuId gpu) const override;
    Tick ingressTime(const TrafficMatrix& traffic,
                     GpuId gpu) const override;

    void exportStats(StatSet& out) const override;
    void registerMetrics(MetricRegistry& reg) const override;
    void resetStats() override;

    void saveState(snapshot::Serializer& out) const override;
    void restoreState(snapshot::Deserializer& in) override;

  private:
    /**
     * Time to move @p bytes over node @p node's uplink (one direction),
     * including the fabric's one-way latency once per non-empty
     * transfer and any Degraded/Down fault penalty.
     */
    Tick uplinkTime(std::size_t node, std::uint64_t bytes) const;

    /** Wire bytes @p traffic moves from @p node to other nodes. */
    std::uint64_t crossEgress(const TrafficMatrix& traffic,
                              std::size_t node) const;

    /** Wire bytes @p traffic moves into @p node from other nodes. */
    std::uint64_t crossIngress(const TrafficMatrix& traffic,
                               std::size_t node) const;

    std::size_t numNodes_;
    std::size_t gpusPerNode_;

    /** Scaled copy backing interSpec_ when bandwidth_scale != 1.0. */
    InterconnectSpec ownedInterSpec_;
    const InterconnectSpec* interSpec_;

    std::vector<std::unique_ptr<Link>> upEgress_;
    std::vector<std::unique_ptr<Link>> upIngress_;

    /** Lifetime node->node wire bytes, row-major numNodes_ x numNodes_. */
    std::vector<std::uint64_t> cross_;

    /** Per-node uplink fault state. */
    std::vector<PathState> uplinkFaults_;
};

} // namespace gps

#endif // GPS_INTERCONNECT_NODE_TOPOLOGY_HH
