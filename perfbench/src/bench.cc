#include "bench.hh"

#include <algorithm>
#include <atomic>
#include <exception>
#include <set>
#include <stdexcept>
#include <thread>
#include <tuple>

#include "api/result_export.hh"
#include "api/sweep.hh"
#include "apps/workload_cache.hh"
#include "common/rng.hh"
#include "obs/observability.hh"

namespace perfbench
{

using namespace gps;

namespace
{

/** Context for the root span of a new run, under @p parent. */
SpanContext
newRun(const Span& parent)
{
    static std::atomic<std::uint64_t> next_run{1};
    SpanContext at = parent.inner();
    at.run = next_run++;
    return at;
}

RunConfig
systemOf(std::size_t gpus, InterconnectKind interconnect,
         ParadigmKind paradigm)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.system.interconnect = interconnect;
    config.paradigm = paradigm;
    return config;
}

/**
 * One paper grid: per app the 1-GPU memcpy base (the speed-up
 * denominator) and each paradigm at @p gpus GPUs.
 */
void
appendGrid(std::vector<Job>& jobs, const std::string& fig,
           std::size_t gpus, InterconnectKind interconnect, bool gps_only)
{
    for (const std::string& app : gps::workloadNames()) {
        jobs.push_back(Job{fig + "/" + app + "/base", app,
                           systemOf(1, interconnect, ParadigmKind::Memcpy)});
        for (const ParadigmKind paradigm : allParadigms())
            if (!gps_only || paradigm == ParadigmKind::Gps)
                jobs.push_back(Job{fig + "/" + app + "/" + to_string(paradigm),
                                   app, systemOf(gpus, interconnect, paradigm)});
    }
}

std::vector<Job>
paperSweepJobs()
{
    std::vector<Job> jobs;
    appendGrid(jobs, "fig8", 4, InterconnectKind::Pcie3, false);
    appendGrid(jobs, "fig12", 16, InterconnectKind::Pcie6, false);
    return jobs;
}

/**
 * ALS runs at half scale here: its three 64-GPU runs would otherwise be
 * two thirds of an execution, and two executions must fit in the
 * measuring window.
 */
std::vector<Job>
scaleOutJobs()
{
    const auto flat = [](ParadigmKind paradigm, double scale) {
        RunConfig config = systemOf(64, InterconnectKind::Pcie6, paradigm);
        config.scale = scale;
        return config;
    };
    RunConfig nodes = flat(ParadigmKind::Gps, 0.5);
    nodes.system.interconnect = InterconnectKind::NvLink3;
    nodes.system.numNodes = 8;
    nodes.system.interNode = InterconnectKind::IbNdr;
    return {
        Job{"scale/Jacobi/Memcpy/64", "Jacobi",
            flat(ParadigmKind::Memcpy, 1.0)},
        Job{"scale/ALS/Memcpy/64", "ALS", flat(ParadigmKind::Memcpy, 0.5)},
        Job{"scale/Jacobi/GPS/64", "Jacobi", flat(ParadigmKind::Gps, 1.0)},
        Job{"scale/ALS/GPS/64", "ALS", flat(ParadigmKind::Gps, 0.5)},
        Job{"scale/ALS/GPS/8x8", "ALS", nodes},
        Job{"scale/PubSub/GPS/64", "PubSub", flat(ParadigmKind::Gps, 1.0)},
        Job{"scale/PubSub/Memcpy/64", "PubSub",
            flat(ParadigmKind::Memcpy, 1.0)},
    };
}

std::vector<Job>
toolingJobs()
{
    const auto at16 = [](ParadigmKind paradigm) {
        return systemOf(16, InterconnectKind::Pcie6, paradigm);
    };
    RunConfig two_nodes = at16(ParadigmKind::Gps);
    two_nodes.system.numNodes = 2;
    return {
        Job{"tool/Jacobi/GPS", "Jacobi", at16(ParadigmKind::Gps)},
        Job{"tool/ALS/GPS/2n", "ALS", two_nodes},
        Job{"tool/EQWP/GPS", "EQWP", at16(ParadigmKind::Gps)},
        Job{"tool/Pagerank/GPS", "Pagerank", at16(ParadigmKind::Gps)},
        Job{"tool/CT/UM", "CT", at16(ParadigmKind::Um)},
    };
}

std::unique_ptr<Workload>
makeApp(const Job& job, std::uint64_t seed)
{
    if (job.seeded())
        return std::make_unique<PubSubWorkload>(seed);
    return makeWorkload(job.app);
}

/** Iterations Runner::run replays for @p config (no fault plan). */
std::size_t
replayedIterations(const RunConfig& config, const Workload& workload)
{
    const std::size_t effective =
        config.effectiveIterationsOverride != 0
            ? config.effectiveIterationsOverride
            : workload.effectiveIterations();
    return std::min<std::size_t>(1 + config.steadyIterations,
                                 std::max<std::size_t>(effective, 1));
}

std::string
describeCurrentException()
{
    std::string type, message;
    describeException(std::current_exception(), type, message);
    return type + ": " + message;
}

/** Runner::run of a fresh workload instance inside a span. */
RunRecord
simulate(const Job& job, const RunConfig& config, std::string label,
         std::uint64_t seed, const char* span_name, const SpanContext& at)
{
    RunRecord rec;
    rec.label = std::move(label);
    rec.seeded = job.seeded();
    std::unique_ptr<Workload> workload = makeApp(job, seed);
    Span span(at, span_name, rec.label);
    try {
        rec.result = Runner(config).run(*workload);
    } catch (...) {
        rec.error = describeCurrentException();
    }
    rec.wallSeconds = span.stop();
    if (const auto* pubsub =
            dynamic_cast<const PubSubWorkload*>(workload.get());
        pubsub != nullptr && rec.error.empty()) {
        const AccessCounts per = pubsub->perIteration();
        const std::uint64_t iters =
            replayedIterations(config, *workload);
        rec.generated = AccessCounts{per.accesses * iters,
                                     per.loads * iters,
                                     per.stores * iters};
    }
    return rec;
}

/** resultToJson(result, true) inside an api.export span. */
double
exportJson(RunRecord& rec, const SpanContext& at)
{
    if (!rec.error.empty())
        return 0.0;
    Span span(at, "api.export", rec.label);
    rec.json = resultToJson(rec.result, true);
    return span.stop();
}

/** Pull every access of @p iterations iterations without replaying. */
AccessCounts
drain(Workload& workload, WorkloadContext& ctx, std::size_t iterations,
      std::size_t chunk)
{
    std::vector<MemAccess> batch(std::max<std::size_t>(chunk, 1));
    AccessCounts counts;
    for (std::size_t iter = 0; iter < iterations; ++iter) {
        for (Phase& phase : workload.iteration(iter, ctx)) {
            for (KernelLaunch& kernel : phase.kernels) {
                if (kernel.stream == nullptr)
                    continue;
                std::size_t n = 0;
                while ((n = kernel.stream->nextBatch(batch.data(),
                                                     batch.size())) > 0) {
                    counts.accesses += n;
                    for (std::size_t i = 0; i < n; ++i) {
                        counts.loads += batch[i].type == AccessType::Load;
                        counts.stores +=
                            batch[i].type == AccessType::Store;
                    }
                }
            }
        }
    }
    return counts;
}

/**
 * The layers a plain run goes through, called one at a time: build
 * (api.build), workload set-up (apps.setup) and a dry drain of the
 * replayed iterations (apps.stream), then the run itself (api.run) and
 * its export (api.export). The drained counts become the run's
 * generated counts, which the gate compares with what was replayed.
 */
RunRecord
stagedRun(const Job& job, std::uint64_t seed, const SpanContext& at,
          LayerTimes& times)
{
    std::optional<AccessCounts> drained;
    std::string stage_error;
    try {
        Span build(at, "api.build");
        MultiGpuSystem system(job.config.system);
        std::unique_ptr<Paradigm> paradigm =
            makeParadigm(job.config.paradigm, system);
        times.build += build.stop();

        Span setup(at, "apps.setup");
        std::unique_ptr<Workload> workload = makeApp(job, seed);
        workload->setScale(job.config.scale);
        WorkloadContext ctx(system, *paradigm);
        workload->setup(ctx);
        times.setupWarm += setup.stop();

        Span stream(at, "apps.stream");
        drained = drain(*workload, ctx,
                        replayedIterations(job.config, *workload),
                        job.config.replayChunk);
        times.stream += stream.stop();
        times.drained += drained->accesses;
    } catch (...) {
        stage_error = describeCurrentException();
    }

    RunRecord rec =
        simulate(job, job.config, job.label, seed, "api.run", at);
    times.run += rec.wallSeconds;
    if (!stage_error.empty() && rec.error.empty())
        rec.error = "staging: " + stage_error;
    if (drained.has_value())
        rec.generated = drained;
    times.exportJson += exportJson(rec, at);
    return rec;
}

/**
 * Runner::run with check.enabled inside a check.run span; a run that
 * reports any finding fails the gate.
 */
RunRecord
checkedRun(const Job& job, std::uint64_t seed, const SpanContext& at,
           LayerTimes& times)
{
    RunConfig config = job.config;
    config.check.enabled = true;
    RunRecord rec = simulate(job, config, job.label + "/check", seed,
                             "check.run", at);
    times.checkRun += rec.wallSeconds;
    if (!rec.error.empty())
        return rec;
    const std::uint64_t findings =
        rec.result.check != nullptr ? rec.result.check->divergences : 0;
    times.findings += findings;
    if (rec.result.check == nullptr)
        rec.failure = "checked run returned no check report";
    else if (findings != 0)
        rec.failure = "checked run reported " + std::to_string(findings) +
                      " findings";
    return rec;
}

/**
 * The tooling variants of one job, appended to @p out: a checked run, a
 * fully observed run, a run captured at the profile point into memory,
 * and a run restored from that blob, which must export byte for byte
 * what @p plain exported.
 */
void
toolingVariants(const Job& job, std::uint64_t seed, const RunRecord& plain,
                const SpanContext& at, LayerTimes& times,
                std::vector<RunRecord>& out)
{
    times.variantPlain += plain.wallSeconds;
    RunRecord check = checkedRun(job, seed, at, times);

    RunConfig observed = job.config;
    observed.obs.metrics = true;
    observed.obs.timeline = true;
    observed.obs.profile = true;
    observed.obs.causal = true;
    RunRecord obs =
        simulate(job, observed, job.label + "/obs", seed, "obs.run", at);
    times.obsRun += obs.wallSeconds;
    if (obs.result.obs != nullptr)
        times.timelineEvents += obs.result.obs->timeline.size();
    // The export ignores the observability report; drop the timeline
    // so the execution does not hold every run's events at once.
    obs.result.obs.reset();

    auto blob = std::make_shared<std::string>();
    RunConfig capturing = job.config;
    capturing.snapshotAt.kind = snapshot::AtKind::Profile;
    capturing.snapshotSink = blob;
    RunRecord capture = simulate(job, capturing, job.label + "/capture",
                                 seed, "snapshot.capture", at);
    times.capture += capture.wallSeconds - plain.wallSeconds;
    times.snapshotBytes += blob->size();

    RunConfig restoring = job.config;
    restoring.restoreBlob = blob;
    RunRecord restore = simulate(job, restoring, job.label + "/restore",
                                 seed, "snapshot.restore", at);
    times.restore += restore.wallSeconds;
    times.exportJson += exportJson(restore, at);
    if (restore.error.empty() && plain.error.empty() &&
        restore.json != plain.json)
        restore.failure = "restored run is not byte-identical to the "
                          "plain run";

    out.push_back(std::move(check));
    out.push_back(std::move(obs));
    out.push_back(std::move(capture));
    out.push_back(std::move(restore));
}

} // namespace

void
LayerTimes::merge(const LayerTimes& other)
{
    build += other.build;
    setupWarm += other.setupWarm;
    stream += other.stream;
    run += other.run;
    exportJson += other.exportJson;
    drained += other.drained;
    variantPlain += other.variantPlain;
    checkRun += other.checkRun;
    findings += other.findings;
    obsRun += other.obsRun;
    timelineEvents += other.timelineEvents;
    capture += other.capture;
    restore += other.restore;
    snapshotBytes += other.snapshotBytes;
}

std::vector<Job>
workloadJobs(const std::string& workload, std::uint64_t seed)
{
    std::vector<Job> jobs;
    if (workload == "paper-sweep")
        jobs = paperSweepJobs();
    else if (workload == "scale-out")
        jobs = scaleOutJobs();
    else if (workload == "tooling")
        jobs = toolingJobs();
    else
        throw std::invalid_argument("unknown workload '" + workload + "'");
    Rng rng(seed ^ 0x5deece66dULL);
    for (std::size_t i = jobs.size(); i > 1; --i)
        std::swap(jobs[i - 1], jobs[rng.below(i)]);
    return jobs;
}

std::vector<Job>
accuracyJobs()
{
    std::vector<Job> jobs;
    appendGrid(jobs, "fig8", 4, InterconnectKind::Pcie3, true);
    appendGrid(jobs, "fig12", 16, InterconnectKind::Pcie6, true);
    return jobs;
}

AccessCounts
replayedCounts(const RunResult& result)
{
    return AccessCounts{result.totals.accesses, result.totals.loads,
                        result.totals.stores};
}

std::vector<RunRecord>
sweepRecords(const std::vector<Job>& jobs)
{
    std::vector<SweepJob> sweep;
    for (const Job& job : jobs)
        sweep.push_back(SweepJob{job.app, job.config, job.label});
    std::vector<RunRecord> runs;
    for (SweepOutcome& outcome : runSweep(sweep, sweepWorkers)) {
        RunRecord rec;
        rec.label = std::move(outcome.label);
        rec.result = std::move(outcome.result);
        rec.wallSeconds = outcome.wallSeconds;
        if (!outcome.ok())
            rec.error = outcome.errorText();
        runs.push_back(std::move(rec));
    }
    return runs;
}

Execution
runUntraced(const std::string& workload, const std::vector<Job>& jobs,
            std::uint64_t seed)
{
    Execution exec;
    const SpanContext untraced;
    LayerTimes unused;
    Span wall(untraced, "exec");
    if (workload == "paper-sweep") {
        exec.runs = sweepRecords(jobs);
        exec.wallSeconds = wall.stop();
    } else {
        for (const Job& job : jobs) {
            RunRecord plain = simulate(job, job.config, job.label, seed,
                                       "api.run", untraced);
            if (workload == "tooling") {
                exportJson(plain, untraced);
                toolingVariants(job, seed, plain, untraced, unused,
                                exec.runs);
            }
            exec.runs.push_back(std::move(plain));
        }
        exec.wallSeconds = wall.stop();
    }
    double busy = 0.0;
    for (const RunRecord& rec : exec.runs)
        busy += rec.wallSeconds;
    const double workers =
        workload == "paper-sweep" ? static_cast<double>(sweepWorkers) : 1.0;
    exec.busyFraction = busy / (workers * exec.wallSeconds);
    return exec;
}

Execution
runTraced(const std::string& workload, const std::vector<Job>& jobs,
          std::uint64_t seed, const SpanContext& at)
{
    Execution exec;
    Span wall(at, "exec.traced");
    auto traced_job = [&](const Job& job, LayerTimes& times,
                          std::vector<RunRecord>& out) {
        Span run(newRun(wall), "run", job.label);
        RunRecord plain = stagedRun(job, seed, run.inner(), times);
        if (workload == "tooling")
            toolingVariants(job, seed, plain, run.inner(), times, out);
        out.push_back(std::move(plain));
    };

    if (workload == "paper-sweep") {
        // Same closed loop as runSweep: each worker takes the next job
        // when its previous one finishes.
        std::vector<std::vector<RunRecord>> runs(jobs.size());
        std::vector<LayerTimes> times(jobs.size());
        std::atomic<std::size_t> next{0};
        auto worker = [&] {
            for (std::size_t i = next++; i < jobs.size(); i = next++)
                traced_job(jobs[i], times[i], runs[i]);
        };
        std::vector<std::thread> pool;
        for (std::size_t w = 0; w < sweepWorkers; ++w)
            pool.emplace_back(worker);
        for (std::thread& thread : pool)
            thread.join();
        for (std::size_t i = 0; i < jobs.size(); ++i) {
            exec.layers.merge(times[i]);
            for (RunRecord& rec : runs[i])
                exec.runs.push_back(std::move(rec));
        }
    } else {
        for (const Job& job : jobs)
            traced_job(job, exec.layers, exec.runs);
    }
    exec.wallSeconds = wall.stop();
    return exec;
}

Execution
runPubSubChecks(const std::vector<Job>& jobs, std::uint64_t seed,
                const Execution& traced, const SpanContext& at)
{
    std::vector<const Job*> checked;
    for (const Job& job : jobs)
        if (job.seeded() && job.config.paradigm == ParadigmKind::Gps)
            checked.push_back(&job);
    Execution exec;
    if (checked.empty())
        return exec;
    Span wall(at, "exec.check");
    for (const Job* job : checked) {
        Span run(newRun(wall), "run", job->label);
        RunRecord check = checkedRun(*job, seed, run.inner(), exec.layers);
        for (const RunRecord& plain : traced.runs)
            if (plain.label == job->label)
                exec.layers.variantPlain += plain.wallSeconds;
        exec.runs.push_back(std::move(check));
    }
    exec.wallSeconds = wall.stop();
    return exec;
}

double
coldSetup(const std::vector<Job>& jobs, std::uint64_t seed,
          const SpanContext& at)
{
    apps::WorkloadCache::instance().clear();
    std::set<std::tuple<std::string, std::size_t, std::size_t, double>>
        shapes;
    double setup_seconds = 0.0;
    for (const Job& job : jobs) {
        const SystemConfig& sys = job.config.system;
        if (!shapes.emplace(job.app, sys.numGpus, sys.numNodes,
                            job.config.scale)
                 .second)
            continue;
        Span build(at, "api.build", job.label);
        MultiGpuSystem system(sys);
        std::unique_ptr<Paradigm> paradigm =
            makeParadigm(job.config.paradigm, system);
        build.stop();

        Span setup(at, "apps.setup", job.label);
        std::unique_ptr<Workload> workload = makeApp(job, seed);
        workload->setScale(job.config.scale);
        WorkloadContext ctx(system, *paradigm);
        workload->setup(ctx);
        setup_seconds += setup.stop();
    }
    return setup_seconds;
}

} // namespace perfbench
