/**
 * @file
 * The benchmark's workloads and how one execution of each runs, untraced
 * (end-to-end metrics) or traced (per-layer metrics). Every call into
 * the simulator goes through its public API; nothing inside the library
 * is instrumented.
 */

#ifndef PERFBENCH_BENCH_HH
#define PERFBENCH_BENCH_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/runner.hh"
#include "pubsub.hh"
#include "spans.hh"

namespace perfbench
{

/** Seed the committed expected digests were recorded at. */
inline constexpr std::uint64_t defaultSeed = 1;

/** Worker threads of the paper-sweep closed loop (clients). */
inline constexpr std::size_t sweepWorkers = 2;

/** One simulation the benchmark submits. */
struct Job
{
    std::string label; ///< unique, e.g. "fig8/Jacobi/GPS"
    std::string app;   ///< bundled workload name or "PubSub"
    gps::RunConfig config;

    /** Whether the run's outcome depends on the workload seed. */
    bool seeded() const { return app == "PubSub"; }
};

/**
 * A workload's jobs, in a submission order shuffled by @p seed.
 * @throws std::invalid_argument for an unknown workload name
 */
std::vector<Job> workloadJobs(const std::string& workload,
                              std::uint64_t seed);

/** The 1-GPU base and GPS runs of the Fig. 8 and Fig. 12 grids. */
std::vector<Job> accuracyJobs();

/** One finished simulation and what the benchmark knows about it. */
struct RunRecord
{
    std::string label;
    bool seeded = false;
    gps::RunResult result;
    double wallSeconds = 0.0;

    /** resultToJson(result, true); filled on demand when empty. */
    std::string json;

    /** Set when the run threw. */
    std::string error;

    /** Set by a workload-specific check the run failed. */
    std::string failure;

    /** Accesses the benchmark generated for this run, when known. */
    std::optional<AccessCounts> generated;
};

/** Host seconds per layer, summed over one traced execution. */
struct LayerTimes
{
    double build = 0.0;      ///< MultiGpuSystem + makeParadigm
    double setupWarm = 0.0;  ///< makeWorkload + setup, inputs cached
    double stream = 0.0;     ///< iteration() + nextBatch dry drain
    double run = 0.0;        ///< Runner::run of the plain runs
    double exportJson = 0.0; ///< resultToJson(result, true)
    std::uint64_t drained = 0;

    /** Plain runs of the configs that also ran checked or observed. */
    double variantPlain = 0.0;

    double checkRun = 0.0; ///< Runner::run with check.enabled
    std::uint64_t findings = 0;

    double obsRun = 0.0; ///< Runner::run with full observability
    std::uint64_t timelineEvents = 0;

    double capture = 0.0; ///< capture runs minus their plain runs
    double restore = 0.0;
    std::uint64_t snapshotBytes = 0;

    void merge(const LayerTimes& other);
};

/** One execution of a workload: its wall time and every run in it. */
struct Execution
{
    double wallSeconds = 0.0;
    std::vector<RunRecord> runs;

    /** Traced executions only. */
    LayerTimes layers;

    /** Untraced executions: Σ run wall / (workers x wall). */
    double busyFraction = 0.0;
};

/** Run @p jobs through runSweep on sweepWorkers threads. */
std::vector<RunRecord> sweepRecords(const std::vector<Job>& jobs);

/** Untraced execution: only the workload's own calls, timed whole. */
Execution runUntraced(const std::string& workload,
                      const std::vector<Job>& jobs, std::uint64_t seed);

/**
 * Traced execution: each run's layers are called one by one, each call
 * inside a span opened at @p at.
 */
Execution runTraced(const std::string& workload,
                    const std::vector<Job>& jobs, std::uint64_t seed,
                    const SpanContext& at);

/**
 * One checked run per GPS PubSub job, paired with that job's plain run
 * in @p traced for check.overhead_x. Empty when there is no such job.
 */
Execution runPubSubChecks(const std::vector<Job>& jobs,
                          std::uint64_t seed, const Execution& traced,
                          const SpanContext& at);

/**
 * Cold set-up: construct and set up each distinct app x system shape
 * once, on a freshly built system, after emptying the WorkloadCache.
 * @return seconds spent in apps.setup (graph generation included)
 */
double coldSetup(const std::vector<Job>& jobs, std::uint64_t seed,
                 const SpanContext& at);

/** Counts the simulator reports for a run's replayed accesses. */
AccessCounts replayedCounts(const gps::RunResult& result);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HH
