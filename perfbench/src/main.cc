/**
 * @file
 * gps_perfbench: the repository benchmark program.
 *
 *   gps_perfbench --workload <paper-sweep|scale-out|tooling> --seed <n>
 *                 --seconds <s> --trace <0|1> [--perturb-digest]
 *                 [--record-digests]
 *
 * Run it from the repository root: it reads perfbench/data/ and writes
 * traces under .bench_build/. Untraced (--trace 0) it prints the
 * end-to-end metrics; traced (--trace 1) the per-layer metrics and the
 * span table, and it writes the spans as Chrome trace JSON. Every run is checked: exported
 * results against committed digests, replayed against generated access
 * counts, restored against plain runs and checked runs for findings.
 * The last stdout line is one JSON object with the verdict and metrics.
 * Exit status is 0 when every check passed, 1 otherwise, 2 on bad usage.
 * perfbench/README.md describes the workloads and metrics.
 */

#include <sys/resource.h>

#include <algorithm>
#include <cerrno>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <set>
#include <sstream>
#include <stdexcept>
#include <string>
#include <vector>

#include "api/result_export.hh"
#include "bench.hh"
#include "common/json.hh"
#include "common/logging.hh"

namespace
{

using namespace perfbench;

struct Options
{
    std::string workload;
    std::uint64_t seed = defaultSeed;
    double seconds = 10.0;
    bool trace = false;
    bool perturbDigest = false;
    bool recordDigests = false;
};

constexpr const char* digestsPath = "perfbench/data/expected_digests.json";
constexpr const char* paperPath = "perfbench/data/paper_reference.json";

/** Cold set-ups per process; setup_s is their median. */
constexpr int setupRounds = 5;

[[noreturn]] void
usage(const std::string& why)
{
    std::fprintf(stderr,
                 "gps_perfbench: %s\n"
                 "usage: gps_perfbench --workload <name> --seed <n> "
                 "--seconds <s> --trace <0|1> [--perturb-digest] "
                 "[--record-digests]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseCount(const std::string& text, const char* flag)
{
    char* end = nullptr;
    errno = 0;
    const unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0)
        usage(std::string("bad value for ") + flag + ": " + text);
    return v;
}

Options
parseOptions(int argc, char** argv)
{
    Options opt;
    bool have_workload = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto value = [&]() -> std::string {
            if (i + 1 >= argc)
                usage("missing value for " + arg);
            return argv[++i];
        };
        if (arg == "--workload") {
            opt.workload = value();
            have_workload = true;
        } else if (arg == "--seed") {
            opt.seed = parseCount(value(), "--seed");
        } else if (arg == "--seconds") {
            opt.seconds =
                static_cast<double>(parseCount(value(), "--seconds"));
        } else if (arg == "--trace") {
            const std::string v = value();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            opt.trace = v == "1";
        } else if (arg == "--perturb-digest") {
            opt.perturbDigest = true;
        } else if (arg == "--record-digests") {
            opt.recordDigests = true;
        } else {
            usage("unknown argument " + arg);
        }
    }
    if (!have_workload)
        usage("--workload is required");
    return opt;
}

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        throw std::runtime_error("cannot read " + path);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::unique_ptr<gps::JsonValue>
readJson(const std::string& path)
{
    std::string error;
    std::unique_ptr<gps::JsonValue> doc = gps::parseJson(readFile(path), error);
    if (doc == nullptr || !doc->isObject())
        throw std::runtime_error(path + ": not a JSON object " + error);
    return doc;
}

/** FNV-1a 64 of @p text, as 16 hex digits. */
std::string
digestOf(const std::string& text)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const unsigned char c : text) {
        h ^= c;
        h *= 0x100000001b3ULL;
    }
    char out[17];
    std::snprintf(out, sizeof out, "%016llx",
                  static_cast<unsigned long long>(h));
    return out;
}

/**
 * The correctness gate. A run fails when it threw, failed a
 * workload-specific check, replayed other access counts than the
 * benchmark generated, or exported a result whose digest differs from
 * the committed one. Seeded runs have committed digests only for the
 * default seed; at other seeds the access counts check them.
 */
class Gate
{
  public:
    Gate(std::map<std::string, std::string> expected, std::uint64_t seed,
         bool record)
        : expected_(std::move(expected)), seed_(seed), record_(record)
    {}

    /** Self-test: corrupt @p label's expected digest. */
    void
    perturb(const std::string& label)
    {
        std::string& digest = expected_[label];
        digest = digest.empty() || digest.back() != '0' ? "0" : "1";
    }

    void
    judge(RunRecord& rec)
    {
        ++attempted_;
        std::string why;
        if (!rec.error.empty()) {
            why = "threw " + rec.error;
        } else if (!rec.failure.empty()) {
            why = rec.failure;
        } else if (rec.generated.has_value() &&
                   *rec.generated != replayedCounts(rec.result)) {
            why = "replayed accesses/loads/stores differ from the "
                  "generated ones";
        } else {
            if (rec.json.empty())
                rec.json = gps::resultToJson(rec.result, true);
            const std::string digest = digestOf(rec.json);
            std::string().swap(rec.json);
            if (record_) {
                recorded_[rec.label] = digest;
            } else if (!rec.seeded || seed_ == defaultSeed) {
                const auto it = expected_.find(rec.label);
                if (it == expected_.end())
                    why = "no expected digest is committed";
                else if (it->second != digest)
                    why = "result digest " + digest + " != expected " +
                          it->second;
            }
        }
        if (!why.empty()) {
            ++failed_;
            std::fprintf(stderr, "FAIL %s: %s\n", rec.label.c_str(),
                         why.c_str());
        }
    }

    void
    judge(std::vector<RunRecord>& runs)
    {
        for (RunRecord& rec : runs)
            judge(rec);
    }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }
    const std::map<std::string, std::string>& recorded() const
    {
        return recorded_;
    }

  private:
    std::map<std::string, std::string> expected_;
    std::map<std::string, std::string> recorded_;
    std::uint64_t seed_;
    bool record_;
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

std::map<std::string, std::string>
loadDigests(const std::string& path)
{
    std::map<std::string, std::string> digests;
    const std::unique_ptr<gps::JsonValue> doc = readJson(path);
    for (const auto& [label, value] : doc->members())
        digests[label] = value.asString();
    return digests;
}

void
writeDigests(const std::string& path,
             const std::map<std::string, std::string>& digests)
{
    std::ofstream out(path, std::ios::trunc);
    out << "{\n";
    std::size_t i = 0;
    for (const auto& [label, digest] : digests)
        out << "  \"" << gps::JsonWriter::escape(label) << "\": \""
            << digest << "\"" << (++i < digests.size() ? "," : "")
            << "\n";
    out << "}\n";
    if (!out)
        throw std::runtime_error("cannot write " + path);
}

/** Regularized incomplete beta function I_x(a, b) (Lentz's method). */
double
incompleteBeta(double x, double a, double b)
{
    if (x <= 0.0)
        return 0.0;
    if (x >= 1.0)
        return 1.0;
    // The continued fraction converges fast only below this point.
    if (x > (a + 1.0) / (a + b + 2.0))
        return 1.0 - incompleteBeta(1.0 - x, b, a);
    const double front =
        std::exp(std::lgamma(a + b) - std::lgamma(a) - std::lgamma(b) +
                 a * std::log(x) + b * std::log1p(-x)) /
        a;
    constexpr double tiny = 1e-30;
    double f = 1.0, c = 1.0, d = 0.0;
    for (int i = 0; i <= 400; ++i) {
        const double m = static_cast<double>(i / 2);
        double num = 1.0;
        if (i > 0 && i % 2 == 0)
            num = m * (b - m) * x / ((a + 2.0 * m - 1.0) * (a + 2.0 * m));
        else if (i > 0)
            num = -(a + m) * (a + b + m) * x /
                  ((a + 2.0 * m) * (a + 2.0 * m + 1.0));
        d = 1.0 + num * d;
        d = 1.0 / (std::fabs(d) < tiny ? tiny : d);
        c = 1.0 + num / c;
        c = std::fabs(c) < tiny ? tiny : c;
        f *= c * d;
        if (std::fabs(1.0 - c * d) < 1e-12)
            break;
    }
    return front * (f - 1.0);
}

/**
 * Harrell-Davis estimate of the @p p-th percentile: a Beta-weighted
 * mean of all order statistics. Per-run times cluster by config, and a
 * single order statistic jumps between neighbouring clusters from one
 * process to the next; this estimate blends them instead.
 */
double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double n = static_cast<double>(values.size());
    const double a = p / 100.0 * (n + 1.0);
    const double b = (1.0 - p / 100.0) * (n + 1.0);
    double estimate = 0.0;
    double below = 0.0;
    for (std::size_t i = 0; i < values.size(); ++i) {
        const double upto =
            incompleteBeta(static_cast<double>(i + 1) / n, a, b);
        estimate += (upto - below) * values[i];
        below = upto;
    }
    return estimate;
}

double
median(const std::vector<double>& values)
{
    return percentile(values, 50.0);
}

double
ratio(double num, double den)
{
    return den == 0.0 ? 0.0 : num / den;
}

/** Simulated GPS speed-ups against the paper's published values. */
struct Accuracy
{
    std::map<std::string, double> fig8; ///< per app
    double fig12Geomean = 0.0;
    double fig8ErrPct = 0.0;
    double fig12ErrPct = 0.0;
    bool complete = false;
};

Accuracy
accuracyOf(const std::vector<RunRecord>& runs, const gps::JsonValue& paper)
{
    const gps::JsonValue* fig8_paper = paper.find("fig8_gps_speedup");
    const double fig12_paper = paper.number("fig12_gps_geomean");
    if (fig8_paper == nullptr || fig12_paper <= 0.0)
        throw std::runtime_error("paper reference data is incomplete");
    std::map<std::string, const gps::RunResult*> by_label;
    for (const RunRecord& rec : runs)
        if (rec.error.empty())
            by_label[rec.label] = &rec.result;
    auto gps_speedup = [&](const std::string& fig, const std::string& app) {
        const auto base = by_label.find(fig + "/" + app + "/base");
        const auto run = by_label.find(fig + "/" + app + "/GPS");
        return base == by_label.end() || run == by_label.end()
                   ? 0.0
                   : gps::speedupOver(*base->second, *run->second);
    };

    Accuracy acc;
    double err_sum = 0.0;
    double log_sum = 0.0;
    for (const std::string& app : gps::workloadNames()) {
        const double fig8 = gps_speedup("fig8", app);
        const double fig12 = gps_speedup("fig12", app);
        if (fig8 <= 0.0 || fig12 <= 0.0)
            return acc;
        const double want = fig8_paper->number(app);
        if (want <= 0.0)
            throw std::runtime_error("no paper Fig. 8 value for " + app);
        acc.fig8[app] = fig8;
        err_sum += std::fabs(fig8 - want) / want;
        log_sum += std::log(fig12);
    }
    const double apps = static_cast<double>(acc.fig8.size());
    acc.fig8ErrPct = 100.0 * err_sum / apps;
    acc.fig12Geomean = std::exp(log_sum / apps);
    acc.fig12ErrPct =
        100.0 * std::fabs(acc.fig12Geomean - fig12_paper) / fig12_paper;
    acc.complete = true;
    return acc;
}

void
printAccuracy(const Accuracy& acc, const gps::JsonValue& paper)
{
    std::printf("\naccuracy (simulated GPS speed-up over 1 GPU vs. the "
                "paper):\n");
    std::printf("  %-10s %8s %8s\n", "Fig. 8", "sim", "paper");
    const gps::JsonValue* fig8 = paper.find("fig8_gps_speedup");
    for (const auto& [app, speedup] : acc.fig8)
        std::printf("  %-10s %8.3f %8.2f\n", app.c_str(), speedup,
                    fig8->number(app));
    std::printf("  %-10s %8.3f %8.2f   (Fig. 12 GPS geomean, 16 GPUs)\n",
                "geomean", acc.fig12Geomean,
                paper.number("fig12_gps_geomean"));
    std::printf("  Only these GPS speed-ups are compared with published "
                "values; every other simulated number is unvalidated.\n");
}

struct Metric
{
    std::string name;
    double value;
    std::string unit;
};

/** Σ of a per-GPU stat ("gpu<N>.<suffix>") over all GPUs. */
double
perGpuSum(const gps::StatSet& stats, const std::string& suffix)
{
    double sum = 0.0;
    for (const auto& [name, value] : stats.all()) {
        if (name.rfind("gpu", 0) != 0)
            continue;
        std::size_t i = 3;
        while (i < name.size() && name[i] >= '0' && name[i] <= '9')
            ++i;
        if (i > 3 && name.compare(i, std::string::npos, suffix) == 0)
            sum += value;
    }
    return sum;
}

/** One exact work count: its name, unit and where a result keeps it. */
struct WorkCount
{
    const char* name;
    const char* unit;
    double (*of)(const gps::RunResult&);
};

double
u64(std::uint64_t v)
{
    return static_cast<double>(v);
}

const WorkCount workCounts[] = {
    {"gpu.accesses", "count",
     [](const gps::RunResult& r) { return u64(r.totals.accesses); }},
    {"gpu.stores", "count",
     [](const gps::RunResult& r) { return u64(r.totals.stores); }},
    {"gpu.sm_coalescer_forwarded", "count",
     [](const gps::RunResult& r) {
         return perGpuSum(r.stats, ".sm_coalescer.forwarded");
     }},
    {"mem.tlb_lookups", "count",
     [](const gps::RunResult& r) {
         return perGpuSum(r.stats, ".tlb.hits") +
                perGpuSum(r.stats, ".tlb.misses");
     }},
    {"mem.tlb_misses", "count",
     [](const gps::RunResult& r) {
         return perGpuSum(r.stats, ".tlb.misses");
     }},
    {"mem.pt_map_ops", "count",
     [](const gps::RunResult& r) {
         return perGpuSum(r.stats, ".page_table.map_ops");
     }},
    {"cache.l2_accesses", "count",
     [](const gps::RunResult& r) {
         return u64(r.totals.l2Hits + r.totals.l2Misses);
     }},
    {"cache.l2_misses", "count",
     [](const gps::RunResult& r) { return u64(r.totals.l2Misses); }},
    {"cache.l2_writebacks", "count",
     [](const gps::RunResult& r) {
         return perGpuSum(r.stats, ".l2.writebacks");
     }},
    {"core.rwq_inserts", "count",
     [](const gps::RunResult& r) { return u64(r.totals.wqInserts); }},
    {"core.rwq_drains", "count",
     [](const gps::RunResult& r) { return u64(r.totals.wqDrains); }},
    {"core.subscribe_ops", "count",
     [](const gps::RunResult& r) {
         return r.stats.get("subscription_manager.subscribe_ops");
     }},
    {"core.unsubscribe_ops", "count",
     [](const gps::RunResult& r) {
         return r.stats.get("subscription_manager.unsubscribe_ops");
     }},
    {"core.gps_tlb_misses", "count",
     [](const gps::RunResult& r) { return u64(r.totals.gpsTlbMisses); }},
    {"core.uplink_forwards", "count",
     [](const gps::RunResult& r) {
         return r.stats.get("gps.uplink_forwards");
     }},
    {"driver.page_faults", "count",
     [](const gps::RunResult& r) { return u64(r.totals.pageFaults); }},
    {"driver.page_migrations", "count",
     [](const gps::RunResult& r) { return u64(r.totals.pageMigrations); }},
    {"driver.shootdown_rounds", "count",
     [](const gps::RunResult& r) {
         return r.stats.get("driver.shootdown_rounds");
     }},
    {"interconnect.bytes", "B",
     [](const gps::RunResult& r) {
         return r.stats.get("interconnect.total_bytes");
     }},
};

void
printSpanTable(const std::vector<SpanRecord>& spans)
{
    std::printf("\nhost spans (all traced executions and set-ups):\n");
    std::printf("  %-18s %8s %12s %12s\n", "span", "count", "total_s",
                "self_s");
    for (const auto& [name, t] : summarize(spans))
        std::printf("  %-18s %8llu %12.6f %12.6f\n", name.c_str(),
                    static_cast<unsigned long long>(t.count), t.total,
                    t.self);
}

void
printMetrics(const std::vector<Metric>& metrics)
{
    std::printf("\n  %-28s %18s  %s\n", "metric", "value", "unit");
    for (const Metric& m : metrics)
        std::printf("  %-28s %18.6f  %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
}

std::string
resultLine(bool correct, const Gate& gate,
           const std::vector<Metric>& metrics)
{
    gps::JsonWriter json;
    json.beginObject();
    json.field("correct", correct);
    json.field("attempted", gate.attempted());
    json.field("failed", gate.failed());
    json.key("metrics").beginObject();
    for (const Metric& m : metrics) {
        json.key(m.name).beginObject();
        json.field("value", std::isfinite(m.value) ? m.value : 0.0);
        json.field("unit", m.unit);
        json.endObject();
    }
    json.endObject();
    json.endObject();
    return json.str();
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return static_cast<double>(usage.ru_maxrss) / 1024.0;
}

std::vector<double>
wallsOf(const std::vector<Execution>& execs)
{
    std::vector<double> walls;
    for (const Execution& exec : execs)
        walls.push_back(exec.wallSeconds);
    return walls;
}

/** Per-layer metrics of one traced execution. */
std::map<std::string, double>
layerMetrics(const LayerTimes& t, const LayerTimes& checks)
{
    const double replay_self = t.run - t.stream - t.build - t.setupWarm;
    const double variant_plain = t.variantPlain + checks.variantPlain;
    return {
        {"apps.setup_warm_s", t.setupWarm},
        {"apps.stream_s", t.stream},
        {"apps.stream_macc_per_s",
         ratio(static_cast<double>(t.drained), t.stream) / 1e6},
        {"api.build_s", t.build},
        {"api.run_s", t.run},
        {"api.replay_self_s", replay_self},
        {"api.replay_ns_per_access",
         ratio(replay_self * 1e9, static_cast<double>(t.drained))},
        {"api.export_s", t.exportJson},
        {"snapshot.capture_s", t.capture},
        {"snapshot.restore_s", t.restore},
        {"check.overhead_x",
         ratio(t.checkRun + checks.checkRun, variant_plain)},
        {"obs.overhead_x", ratio(t.obsRun, variant_plain)},
    };
}

std::vector<Metric>
endToEndMetrics(const std::vector<Execution>& untraced,
                const std::vector<double>& setup_walls, double peak_rss,
                const Accuracy& acc)
{
    std::vector<double> run_walls;
    double accesses = 0.0;
    for (const Execution& exec : untraced)
        for (const RunRecord& rec : exec.runs) {
            run_walls.push_back(rec.wallSeconds);
            accesses += static_cast<double>(rec.result.totals.accesses);
        }
    const std::vector<double> exec_walls = wallsOf(untraced);
    double exec_total = 0.0;
    for (const double w : exec_walls)
        exec_total += w;
    std::vector<Metric> metrics = {
        {"wall_s", median(exec_walls), "s"},
        {"setup_s", median(setup_walls), "s"},
        {"run_s_p50", percentile(run_walls, 50.0), "s"},
        {"run_s_p90", percentile(run_walls, 90.0), "s"},
        {"macc_per_s", ratio(accesses, exec_total) / 1e6, "Macc/s"},
        {"peak_rss_mb", peak_rss, "MB"},
        {"fig8_gps_err_pct", acc.fig8ErrPct, "%"},
        {"fig12_gps_err_pct", acc.fig12ErrPct, "%"},
    };
    return metrics;
}

std::vector<Metric>
perLayerMetrics(const std::vector<Job>& jobs,
                const std::vector<Execution>& untraced,
                const std::vector<Execution>& traced,
                const Execution& checks,
                const std::vector<double>& setup_layer, const Gate& gate)
{
    std::map<std::string, std::vector<double>> per_exec;
    for (const Execution& exec : traced)
        for (const auto& [name, value] :
             layerMetrics(exec.layers, checks.layers))
            per_exec[name].push_back(value);
    auto layer = [&](const std::string& name) {
        return median(per_exec[name]);
    };
    std::vector<double> busy;
    for (const Execution& exec : untraced)
        busy.push_back(exec.busyFraction);
    const LayerTimes& first = traced.front().layers;
    std::vector<Metric> metrics = {
        {"apps.setup_s", median(setup_layer), "s"},
        {"apps.setup_warm_s", layer("apps.setup_warm_s"), "s"},
        {"apps.stream_s", layer("apps.stream_s"), "s"},
        {"apps.stream_macc_per_s", layer("apps.stream_macc_per_s"),
         "Macc/s"},
        {"api.build_s", layer("api.build_s"), "s"},
        {"api.run_s", layer("api.run_s"), "s"},
        {"api.replay_self_s", layer("api.replay_self_s"), "s"},
        {"api.replay_ns_per_access", layer("api.replay_ns_per_access"),
         "ns"},
        {"api.export_s", layer("api.export_s"), "s"},
        {"api.sweep_busy_frac", median(busy), "fraction"},
        {"snapshot.capture_s", layer("snapshot.capture_s"), "s"},
        {"snapshot.restore_s", layer("snapshot.restore_s"), "s"},
        {"snapshot.bytes", static_cast<double>(first.snapshotBytes), "B"},
        {"check.overhead_x", layer("check.overhead_x"), "x"},
        {"check.findings",
         static_cast<double>(first.findings + checks.layers.findings),
         "count"},
        {"obs.overhead_x", layer("obs.overhead_x"), "x"},
        {"obs.timeline_events", static_cast<double>(first.timelineEvents),
         "count"},
    };

    // Work counts of the plain runs (not the tooling variants), which
    // the replay decomposition above divides by.
    std::set<std::string> plain_labels;
    for (const Job& job : jobs)
        plain_labels.insert(job.label);
    std::vector<const RunRecord*> plain_runs;
    for (const RunRecord& rec : traced.front().runs)
        if (plain_labels.count(rec.label) != 0)
            plain_runs.push_back(&rec);
    for (const WorkCount& count : workCounts) {
        double sum = 0.0;
        for (const RunRecord* rec : plain_runs)
            sum += count.of(rec->result);
        metrics.push_back({count.name, sum, count.unit});
    }

    metrics.push_back(
        {"trace.overhead_frac",
         ratio(median(wallsOf(traced)), median(wallsOf(untraced))) - 1.0,
         "fraction"});
    metrics.push_back({"fail_rate",
                       ratio(static_cast<double>(gate.failed()),
                             static_cast<double>(gate.attempted())),
                       "fraction"});
    return metrics;
}

int
runBenchmark(const Options& opt)
{
    const std::vector<Job> jobs = workloadJobs(opt.workload, opt.seed);
    if (opt.recordDigests && opt.seed != defaultSeed)
        usage("--record-digests needs the default seed " +
              std::to_string(defaultSeed));
    const std::unique_ptr<gps::JsonValue> paper = readJson(paperPath);
    Gate gate(opt.recordDigests ? std::map<std::string, std::string>{}
                                : loadDigests(digestsPath),
              opt.seed, opt.recordDigests);
    if (opt.perturbDigest) {
        std::set<std::string> labels;
        for (const Job& job : jobs)
            labels.insert(job.label);
        gate.perturb(*labels.begin());
    }

    std::printf("gps_perfbench workload=%s seed=%llu seconds=%g trace=%d\n",
                opt.workload.c_str(),
                static_cast<unsigned long long>(opt.seed), opt.seconds,
                opt.trace ? 1 : 0);
    std::fflush(stdout);

    SpanLog log;
    const SpanContext traced_at{opt.trace ? &log : nullptr, -1, 0};
    std::vector<double> setup_walls, setup_layer;
    for (int round = 0; round < setupRounds; ++round) {
        Span setup(traced_at, "setup");
        setup_layer.push_back(coldSetup(jobs, opt.seed, setup.inner()));
        setup_walls.push_back(setup.stop());
    }

    // Executions repeat while another one is expected to fit in the
    // measuring window; there is always at least one (one pair traced).
    const auto start = std::chrono::steady_clock::now();
    auto elapsed = [&] {
        return std::chrono::duration<double>(
                   std::chrono::steady_clock::now() - start)
            .count();
    };
    std::vector<Execution> untraced, traced;
    double peak_rss = 0.0;
    do {
        untraced.push_back(runUntraced(opt.workload, jobs, opt.seed));
        // Set-up plus one execution: the same work in every process,
        // before the benchmark's own records of later executions pile up.
        if (untraced.size() == 1)
            peak_rss = peakRssMb();
        gate.judge(untraced.back().runs);
        if (opt.trace) {
            traced.push_back(
                runTraced(opt.workload, jobs, opt.seed, traced_at));
            gate.judge(traced.back().runs);
        }
    } while (elapsed() + median(wallsOf(untraced)) +
                 (opt.trace ? median(wallsOf(traced)) : 0.0) <=
             opt.seconds);

    Execution checks;
    if (opt.trace) {
        checks = runPubSubChecks(jobs, opt.seed, traced.front(), traced_at);
        gate.judge(checks.runs);
    }

    std::vector<Metric> metrics;
    bool accurate = true;
    if (!opt.trace) {
        // paper-sweep holds the accuracy runs; the other workloads run
        // them after the measured window.
        std::vector<RunRecord> accuracy_runs;
        if (opt.workload != "paper-sweep") {
            accuracy_runs = sweepRecords(accuracyJobs());
            gate.judge(accuracy_runs);
        }
        const Accuracy acc = accuracyOf(
            accuracy_runs.empty() ? untraced.front().runs : accuracy_runs,
            *paper);
        accurate = acc.complete;
        metrics = endToEndMetrics(untraced, setup_walls, peak_rss, acc);
        printMetrics(metrics);
        std::size_t runs = 0;
        std::printf("  execution walls (s):");
        for (const Execution& exec : untraced) {
            std::printf(" %.3f", exec.wallSeconds);
            runs += exec.runs.size();
        }
        std::printf("\n  %zu runs; run_s_p90 has %zu runs above it\n",
                    runs, runs / 10);
        if (acc.complete)
            printAccuracy(acc, *paper);
    } else {
        metrics = perLayerMetrics(jobs, untraced, traced, checks,
                                  setup_layer, gate);
        printSpanTable(log.spans());
        printMetrics(metrics);
        std::printf("  (%zu untraced + %zu traced executions)\n",
                    untraced.size(), traced.size());
        const std::string trace_out =
            ".bench_build/perfbench-trace-" + opt.workload + ".json";
        log.writeChromeTrace(trace_out);
        std::printf("  spans written to %s\n", trace_out.c_str());
    }
    std::printf("  fail_rate %.6f (%llu of %llu runs failed a check)\n",
                ratio(static_cast<double>(gate.failed()),
                      static_cast<double>(gate.attempted())),
                static_cast<unsigned long long>(gate.failed()),
                static_cast<unsigned long long>(gate.attempted()));

    if (opt.recordDigests) {
        std::map<std::string, std::string> merged;
        try {
            merged = loadDigests(digestsPath);
        } catch (const std::runtime_error&) {
            // First recording: no file yet.
        }
        for (const auto& [label, digest] : gate.recorded())
            merged[label] = digest;
        writeDigests(digestsPath, merged);
        std::printf("  recorded %zu digests into %s\n",
                    gate.recorded().size(), digestsPath);
    }

    const bool correct = gate.failed() == 0 && accurate;
    std::printf("%s\n", resultLine(correct, gate, metrics).c_str());
    return correct ? 0 : 1;
}

} // namespace

int
main(int argc, char** argv)
{
    gps::setVerbose(false);
    const Options opt = parseOptions(argc, argv);
    try {
        return runBenchmark(opt);
    } catch (const std::exception& e) {
        std::fprintf(stderr, "gps_perfbench: %s\n", e.what());
        return 1;
    }
}
