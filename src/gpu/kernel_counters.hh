/**
 * @file
 * Per-kernel event counters accumulated during trace replay and consumed
 * by the analytic timing model.
 */

#ifndef GPS_GPU_KERNEL_COUNTERS_HH
#define GPS_GPU_KERNEL_COUNTERS_HH

#include <array>
#include <cstdint>
#include <string>

#include "common/counter_fields.hh"
#include "common/stats.hh"
#include "common/types.hh"

namespace gps
{

/** Everything the replay engine counts for one kernel on one GPU. */
struct KernelCounters
{
    std::uint64_t computeInstrs = 0;
    std::uint64_t accesses = 0;
    std::uint64_t loads = 0;
    std::uint64_t stores = 0;
    std::uint64_t atomics = 0;

    std::uint64_t l2Hits = 0;
    std::uint64_t l2Misses = 0;

    /** Local DRAM traffic: miss fills + dirty writebacks. */
    std::uint64_t dramBytes = 0;

    /** Demand loads serviced by a remote GPU (stall-prone). */
    std::uint64_t remoteLoads = 0;
    std::uint64_t remoteLoadBytes = 0;

    /** Atomics performed at a remote GPU (stall even harder). */
    std::uint64_t remoteAtomics = 0;

    /** Proactive write traffic pushed to peers (non-stalling). */
    std::uint64_t pushedStoreBytes = 0;

    std::uint64_t tlbMisses = 0;

    // --- UM machinery ---
    std::uint64_t pageFaults = 0;
    std::uint64_t pageMigrations = 0;
    std::uint64_t migrationBytes = 0;
    std::uint64_t tlbShootdowns = 0;

    // --- GPS machinery ---
    std::uint64_t wqInserts = 0;    ///< lines entered into the WQ
    std::uint64_t wqCoalesced = 0;  ///< stores merged into a live entry
    std::uint64_t wqDrains = 0;     ///< entries drained to the wire
    std::uint64_t wqAtomicBypass = 0; ///< atomics forwarded uncoalesced
    std::uint64_t smCoalesced = 0;  ///< stores absorbed by SM coalescer
    std::uint64_t gpsTlbHits = 0;
    std::uint64_t gpsTlbMisses = 0;
    std::uint64_t sysCollapses = 0; ///< pages collapsed by sys stores

    // --- Fault degradation (see src/fault/) ---
    std::uint64_t wqStallDrains = 0; ///< drains forced while saturated
    Tick wqStallTicks = 0;           ///< serialized SM stall time

    void merge(const KernelCounters& other);

    /** Add every counter into @p out as "<prefix>.<field name>". */
    void exportStats(StatSet& out, const std::string& prefix) const;
};

/** Every KernelCounters member once, in snapshot order. */
inline constexpr std::array<CounterField<KernelCounters>, 27>
    kernelCounterFields = {{
        {&KernelCounters::computeInstrs, "compute_instrs"},
        {&KernelCounters::accesses, "accesses"},
        {&KernelCounters::loads, "loads"},
        {&KernelCounters::stores, "stores"},
        {&KernelCounters::atomics, "atomics"},
        {&KernelCounters::l2Hits, "l2_hits"},
        {&KernelCounters::l2Misses, "l2_misses"},
        {&KernelCounters::dramBytes, "dram_bytes"},
        {&KernelCounters::remoteLoads, "remote_loads"},
        {&KernelCounters::remoteLoadBytes, "remote_load_bytes"},
        {&KernelCounters::remoteAtomics, "remote_atomics"},
        {&KernelCounters::pushedStoreBytes, "pushed_store_bytes"},
        {&KernelCounters::tlbMisses, "tlb_misses"},
        {&KernelCounters::pageFaults, "page_faults"},
        {&KernelCounters::pageMigrations, "page_migrations"},
        {&KernelCounters::migrationBytes, "migration_bytes"},
        {&KernelCounters::tlbShootdowns, "tlb_shootdowns"},
        {&KernelCounters::wqInserts, "wq_inserts"},
        {&KernelCounters::wqCoalesced, "wq_coalesced"},
        {&KernelCounters::wqDrains, "wq_drains"},
        {&KernelCounters::wqAtomicBypass, "wq_atomic_bypass"},
        {&KernelCounters::smCoalesced, "sm_coalesced"},
        {&KernelCounters::gpsTlbHits, "gps_tlb_hits"},
        {&KernelCounters::gpsTlbMisses, "gps_tlb_misses"},
        {&KernelCounters::sysCollapses, "sys_collapses"},
        {&KernelCounters::wqStallDrains, "wq_stall_drains"},
        {&KernelCounters::wqStallTicks, "wq_stall_ticks"},
    }};

static_assert(coversRecord(kernelCounterFields),
              "list every KernelCounters member in kernelCounterFields");

inline void
KernelCounters::merge(const KernelCounters& other)
{
    for (const auto& f : kernelCounterFields)
        this->*f.member += other.*f.member;
}

} // namespace gps

#endif // GPS_GPU_KERNEL_COUNTERS_HH
