/**
 * @file
 * Checkpoint/restore tests: byte-identical resume for every bundled
 * workload, corrupt/truncated snapshot rejection (never half-restored),
 * restore-verification catching injected state divergence, warm-started
 * sweeps matching cold sweeps byte-for-byte, and the validated numeric
 * parsers the snapshot CLI and cache knobs share.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <fstream>
#include <string>
#include <vector>

#include <unistd.h>

#include "api/result_export.hh"
#include "api/runner.hh"
#include "api/sweep.hh"
#include "common/crc32.hh"
#include "common/env.hh"
#include "common/rng.hh"
#include "snapshot/snapshot.hh"

namespace gps
{
namespace
{

constexpr double smokeScale = 0.0625;

RunConfig
smokeConfig(ParadigmKind paradigm = ParadigmKind::Gps,
            std::size_t gpus = 4)
{
    RunConfig config;
    config.system.numGpus = gpus;
    config.scale = smokeScale;
    config.paradigm = paradigm;
    return config;
}

std::string
runJson(const std::string& app, const RunConfig& config)
{
    return resultToJson(runWorkload(app, config), /*include_stats=*/true);
}

/** Capture a snapshot in memory at @p at and return (bytes, cold JSON). */
std::pair<std::shared_ptr<std::string>, std::string>
captureAt(const std::string& app, const RunConfig& base,
          snapshot::SnapshotPoint at)
{
    RunConfig config = base;
    config.snapshotAt = at;
    config.snapshotSink = std::make_shared<std::string>();
    const std::string json = runJson(app, config);
    return {config.snapshotSink, json};
}

std::string
restoreJson(const std::string& app, const RunConfig& base,
            std::shared_ptr<const std::string> blob)
{
    RunConfig config = base;
    config.restoreBlob = std::move(blob);
    return runJson(app, config);
}

/** Scratch snapshot file path, removed on destruction. */
class TempFile
{
  public:
    TempFile()
    {
        char tmpl[] = "/tmp/gps_snapshot_test_XXXXXX";
        const int fd = ::mkstemp(tmpl);
        if (fd >= 0)
            ::close(fd);
        path_ = tmpl;
    }
    ~TempFile() { std::remove(path_.c_str()); }
    const std::string& path() const { return path_; }

  private:
    std::string path_;
};

std::string
readFile(const std::string& path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in),
                       std::istreambuf_iterator<char>());
}

void
writeFile(const std::string& path, const std::string& bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out << bytes;
}

// ---------------------------------------------------------------------
// Point-spec parsing.
// ---------------------------------------------------------------------

TEST(SnapshotPoint, ParsesEverySpelling)
{
    snapshot::SnapshotPoint p;
    EXPECT_TRUE(snapshot::parseSnapshotPoint("profile", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Profile);

    EXPECT_TRUE(snapshot::parseSnapshotPoint("iter:3", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Iter);
    EXPECT_EQ(p.n, 3u);

    EXPECT_TRUE(snapshot::parseSnapshotPoint("phase:12", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Phase);
    EXPECT_EQ(p.n, 12u);

    EXPECT_EQ(snapshot::to_string(p), "phase:12");
}

TEST(SnapshotPoint, RejectsMalformedSpecs)
{
    snapshot::SnapshotPoint p;
    for (const char* bad :
         {"", "iter", "iter:", "iter:0", "iter:-1", "iter:1x",
          "phase:0", "phase:abc", "profiles", "PHASE:1",
          "iter:99999999999999999999"})
        EXPECT_FALSE(snapshot::parseSnapshotPoint(bad, p)) << bad;
    // A failed parse leaves the output untouched.
    p = {snapshot::AtKind::Iter, 7};
    EXPECT_FALSE(snapshot::parseSnapshotPoint("garbage", p));
    EXPECT_EQ(p.kind, snapshot::AtKind::Iter);
    EXPECT_EQ(p.n, 7u);
}

// ---------------------------------------------------------------------
// Round-trip byte-identity.
// ---------------------------------------------------------------------

class SnapshotRoundTrip : public ::testing::TestWithParam<std::string>
{};

TEST_P(SnapshotRoundTrip, ProfileRestoreIsByteIdentical)
{
    const std::string app = GetParam();
    const RunConfig base = smokeConfig();
    const std::string cold = runJson(app, base);

    const auto [blob, capture_json] =
        captureAt(app, base, {snapshot::AtKind::Profile, 0});
    // Capturing must not perturb the capturing run either.
    EXPECT_EQ(capture_json, cold) << app;
    ASSERT_FALSE(blob->empty()) << app;

    EXPECT_EQ(restoreJson(app, base, blob), cold) << app;
}

TEST_P(SnapshotRoundTrip, PhaseRestoreIsByteIdentical)
{
    const std::string app = GetParam();
    const RunConfig base = smokeConfig();
    const std::string cold = runJson(app, base);

    const auto [blob, capture_json] =
        captureAt(app, base, {snapshot::AtKind::Phase, 1});
    EXPECT_EQ(capture_json, cold) << app;
    ASSERT_FALSE(blob->empty()) << app;

    EXPECT_EQ(restoreJson(app, base, blob), cold) << app;
}

INSTANTIATE_TEST_SUITE_P(AllApps, SnapshotRoundTrip,
                         ::testing::ValuesIn(workloadNames()),
                         [](const auto& info) { return info.param; });

TEST(Snapshot, IterRestoreIsByteIdenticalUnderUm)
{
    // Non-GPS paradigms snapshot too; iter points resume at an
    // iteration boundary.
    const RunConfig base = smokeConfig(ParadigmKind::Um, 2);
    const std::string cold = runJson("Jacobi", base);
    const auto [blob, capture_json] =
        captureAt("Jacobi", base, {snapshot::AtKind::Iter, 2});
    EXPECT_EQ(capture_json, cold);
    ASSERT_FALSE(blob->empty());
    EXPECT_EQ(restoreJson("Jacobi", base, blob), cold);
}

TEST(Snapshot, FileRoundTripMatchesInMemory)
{
    const RunConfig base = smokeConfig(ParadigmKind::Gps, 2);
    const std::string cold = runJson("Jacobi", base);

    TempFile file;
    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Profile, 0};
    capture.snapshotOut = file.path();
    EXPECT_EQ(runJson("Jacobi", capture), cold);

    const std::string bytes = readFile(file.path());
    ASSERT_FALSE(bytes.empty());
    // The file decodes standalone and identifies its run.
    const snapshot::Snapshot snap = snapshot::readSnapshotFile(file.path());
    EXPECT_EQ(snap.meta.workload, "Jacobi");
    EXPECT_EQ(snap.meta.numGpus, 2u);

    RunConfig restore = base;
    restore.restoreFrom = file.path();
    EXPECT_EQ(runJson("Jacobi", restore), cold);
}

TEST(Snapshot, UnreachedPointWarnsAndWritesNothing)
{
    RunConfig config = smokeConfig(ParadigmKind::Gps, 2);
    config.snapshotAt = {snapshot::AtKind::Iter, 1000};
    config.snapshotSink = std::make_shared<std::string>();
    (void)runJson("Jacobi", config);
    EXPECT_TRUE(config.snapshotSink->empty());
}

// ---------------------------------------------------------------------
// Corruption rejection: a bad snapshot must never half-restore.
// ---------------------------------------------------------------------

class SnapshotCorruption : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = smokeConfig(ParadigmKind::Gps, 2);
        auto [blob, json] =
            captureAt("Jacobi", base_, {snapshot::AtKind::Profile, 0});
        bytes_ = *blob;
        ASSERT_FALSE(bytes_.empty());
    }

    void
    expectRejected(const std::string& bytes)
    {
        TempFile file;
        writeFile(file.path(), bytes);
        RunConfig config = base_;
        config.restoreFrom = file.path();
        EXPECT_THROW((void)runWorkload("Jacobi", config),
                     snapshot::SnapshotError);
    }

    RunConfig base_;
    std::string bytes_;
};

TEST_F(SnapshotCorruption, TruncatedFileIsRejected)
{
    // A writer killed mid-write: every prefix must be rejected, from an
    // empty file to one missing a single byte.
    expectRejected("");
    expectRejected(bytes_.substr(0, 4));
    expectRejected(bytes_.substr(0, bytes_.size() / 2));
    expectRejected(bytes_.substr(0, bytes_.size() - 1));
}

TEST_F(SnapshotCorruption, TrailingJunkIsRejected)
{
    expectRejected(bytes_ + "x");
}

TEST_F(SnapshotCorruption, BitFlipIsRejected)
{
    // Flip one body byte: the CRC must catch it.
    std::string bytes = bytes_;
    bytes[bytes.size() - 10] ^= 0x01;
    expectRejected(bytes);
}

TEST_F(SnapshotCorruption, BadMagicAndVersionAreRejected)
{
    std::string bad_magic = bytes_;
    bad_magic[0] = 'X';
    expectRejected(bad_magic);

    std::string bad_version = bytes_;
    bad_version[8] ^= 0x40; // version field follows the 8-byte magic
    expectRejected(bad_version);
}

TEST_F(SnapshotCorruption, VersionTwoBlobIsRejected)
{
    // Version 2 still carried event-queue counters in its "events"
    // section; a blob stamped with it must be refused by name.
    std::string old = bytes_;
    old[8] = 2; // little-endian u32 version after the 8-byte magic
    old[9] = old[10] = old[11] = 0;
    try {
        (void)snapshot::decodeSnapshot(old);
        FAIL() << "version 2 snapshot was accepted";
    } catch (const snapshot::SnapshotError& e) {
        EXPECT_NE(std::string(e.what()).find(
                      "unsupported snapshot version 2"),
                  std::string::npos)
            << e.what();
    }
    expectRejected(old);
}

TEST_F(SnapshotCorruption, WrongRunIdentityIsRejected)
{
    // A valid snapshot of a different configuration must be refused by
    // the meta check, not silently applied.
    TempFile file;
    writeFile(file.path(), bytes_);

    RunConfig wrong_gpus = smokeConfig(ParadigmKind::Gps, 4);
    wrong_gpus.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Jacobi", wrong_gpus),
                 snapshot::SnapshotError);

    RunConfig wrong_app = base_;
    wrong_app.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Nbody", wrong_app),
                 snapshot::SnapshotError);

    RunConfig wrong_paradigm = smokeConfig(ParadigmKind::Um, 2);
    wrong_paradigm.restoreFrom = file.path();
    EXPECT_THROW((void)runWorkload("Jacobi", wrong_paradigm),
                 snapshot::SnapshotError);
}

TEST_F(SnapshotCorruption, RestoreVerificationCatchesStateDivergence)
{
    // Seeded divergence: the test hook perturbs one page's driver state
    // after applying the snapshot, so the functional-summary comparison
    // (backed by the RefModel-style invariant suite) must fire.
    TempFile file;
    writeFile(file.path(), bytes_);
    RunConfig config = base_;
    config.restoreFrom = file.path();
    config.restoreMutateForTest = true;
    EXPECT_THROW((void)runWorkload("Jacobi", config),
                 snapshot::SnapshotError);
}

TEST_F(SnapshotCorruption, CaptureRefusesCheckAndProfileRuns)
{
    RunConfig checked = base_;
    checked.snapshotAt = {snapshot::AtKind::Profile, 0};
    checked.snapshotSink = std::make_shared<std::string>();
    checked.check.enabled = true;
    EXPECT_THROW((void)runWorkload("Jacobi", checked),
                 snapshot::SnapshotError);

    TempFile file;
    writeFile(file.path(), bytes_);
    RunConfig profiled = base_;
    profiled.restoreFrom = file.path();
    profiled.obs.profile = true;
    EXPECT_THROW((void)runWorkload("Jacobi", profiled),
                 snapshot::SnapshotError);
}

// ---------------------------------------------------------------------
// Mutations that get past the CRC: the header is resealed around every
// mutated body, so only the state functions, the length bounds and the
// restore verification stand between a corrupt body and a resumed run.
// ---------------------------------------------------------------------

constexpr std::size_t snapshotHeaderBytes = 24;

/** Section tags a GPS snapshot carries, in no particular order. */
const std::vector<std::string> gpsSectionTags = {
    "meta",      "progress", "events",       "topology", "gpu",
    "cache",     "tlb",      "coalescer",    "physmem",  "driver",
    "pagetable", "pagestate", "paradigm:gps", "gpstable", "subs",
    "tracker",   "rwq",      "gpstu",        "summary"};

class SnapshotMutation : public ::testing::Test
{
  protected:
    void
    SetUp() override
    {
        base_ = smokeConfig(ParadigmKind::Gps, 4);
        base_.system.gpu.l2CacheBytes = 64 * 1024;
        auto [blob, json] =
            captureAt("Jacobi", base_, {snapshot::AtKind::Profile, 0});
        ASSERT_GT(blob->size(), snapshotHeaderBytes);
        header_ = blob->substr(0, snapshotHeaderBytes);
        body_ = blob->substr(snapshotHeaderBytes);
        for (const std::string& name : gpsSectionTags)
            for (std::size_t at = tagAt(name, 0); at != std::string::npos;
                 at = tagAt(name, at + 1))
                tags_.push_back(at);
        std::sort(tags_.begin(), tags_.end());
    }

    /** Offset of the next @p name section tag at or after @p from. */
    std::size_t
    tagAt(const std::string& name, std::size_t from) const
    {
        snapshot::Serializer tag;
        tag.section(name);
        return body_.find(tag.bytes(), from);
    }

    /** Offset just past the first @p name section tag. */
    std::size_t
    afterTag(const std::string& name) const
    {
        const std::size_t at = tagAt(name, 0);
        EXPECT_NE(at, std::string::npos) << name;
        return at + 8 + name.size();
    }

    /** @p body behind a header with a matching length and CRC. */
    std::string
    reseal(const std::string& body) const
    {
        snapshot::Serializer out;
        out.u64(body.size());
        std::string file = header_.substr(0, 12);
        const std::uint32_t crc = crc32Of(body);
        for (int i = 0; i < 4; ++i)
            file.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
        return file + out.bytes() + body;
    }

    /** The u64 at @p pos of body_. */
    std::uint64_t
    u64At(std::size_t pos) const
    {
        const std::string bytes = body_.substr(pos, 8);
        snapshot::Deserializer in(bytes);
        return in.u64();
    }

    /** body_ with the u64 at @p pos replaced by @p value. */
    std::string
    withU64(std::size_t pos, std::uint64_t value) const
    {
        snapshot::Serializer out;
        out.u64(value);
        std::string body = body_;
        body.replace(pos, 8, out.bytes());
        return body;
    }

    /**
     * Restore @p body through the runner with a token that is already
     * cancelled, so the run stops at its first iteration boundary after
     * the restore. Returns true when the restore passed the summary and
     * invariant verification, false when it was rejected with
     * SnapshotError. Any other outcome fails the test.
     */
    bool
    restores(const std::string& body, const std::string& what)
    {
        RunConfig config = base_;
        config.restoreBlob =
            std::make_shared<const std::string>(reseal(body));
        config.cancel = std::make_shared<CancelToken>();
        config.cancel->cancel();
        try {
            (void)runWorkload("Jacobi", config);
            ADD_FAILURE() << what << ": the cancelled run completed";
        } catch (const CancelledError&) {
            return true;
        } catch (const snapshot::SnapshotError&) {
            return false;
        } catch (const std::exception& e) {
            ADD_FAILURE() << what << ": " << e.what();
        }
        return false;
    }

    RunConfig base_;
    std::string header_;
    std::string body_;
    std::vector<std::size_t> tags_;
};

TEST_F(SnapshotMutation, ResealedBodyRestores)
{
    EXPECT_TRUE(restores(body_, "unmodified body"));
}

TEST_F(SnapshotMutation, LengthBeyondTheBodyIsRejected)
{
    // The GPS page-table length (after its base VPN) and the progress
    // iteration-time length (after five u64 and the kernel counters)
    // both sat under caps of 2^32 or more: each demanded tens of GiB
    // before a single element was read.
    const std::uint64_t huge = (1ULL << 32) - 1;
    EXPECT_FALSE(restores(withU64(afterTag("gpstable") + 8, huge),
                          "gpstable length"));
    const std::size_t iter_time =
        afterTag("progress") + 8 * (5 + kernelCounterFields.size());
    EXPECT_THROW(
        (void)snapshot::decodeSnapshot(reseal(withU64(iter_time, huge))),
        snapshot::SnapshotError);
}

TEST_F(SnapshotMutation, PageTableVpnFlipIsRejected)
{
    // The first mapping of GPU 0 moves to another VPN, leaving its
    // page's backed or mapped bit without a PTE. Restore must reject
    // it: the resumed run would abort on it in Driver::unbackPage.
    const std::size_t entries = afterTag("pagetable");
    ASSERT_GT(u64At(entries), 0u);
    std::string body = body_;
    body[entries + 8 + 7] ^= 0x40;
    EXPECT_FALSE(restores(body, "pagetable VPN flip"));
}

TEST_F(SnapshotMutation, SeededMutationsAreRejectedOrVerified)
{
    struct Case
    {
        std::string what;
        std::string body;
        bool mustReject;
    };
    std::vector<Case> cases;

    // Truncation at each section tag.
    for (const std::size_t at : tags_)
        cases.push_back({"truncated at " + std::to_string(at),
                         body_.substr(0, at), true});

    // Oversized length fields: the first container length of each
    // section that opens with one (after a base VPN for gpstable, after
    // the GPU-count check for tracker).
    const std::vector<std::pair<std::string, std::size_t>> lengths = {
        {"pagetable", 0}, {"pagestate", 0}, {"rwq", 0},
        {"gpstable", 8},  {"tracker", 8},  {"coalescer", 0}};
    for (const auto& [name, skip] : lengths) {
        const std::size_t pos = afterTag(name) + skip;
        const std::uint64_t left = body_.size() - pos - 8;
        for (const std::uint64_t n : {left + 1, left / 2,
                                      std::uint64_t{0xffffffff},
                                      std::uint64_t{1} << 63})
            cases.push_back({name + " length " + std::to_string(n),
                             withU64(pos, n), true});
    }

    // A GPS replica on a GPU the 4-GPU system does not have: the first
    // PTE with replicas holds (u64 count, u32 gpu, u64 ppn, ...).
    std::size_t pte = afterTag("gpstable") + 16;
    while (u64At(pte) == 0)
        pte += 8;
    std::string bad_gpu = body_;
    bad_gpu[pte + 8] = 4;
    cases.push_back({"replica on GPU 4", std::move(bad_gpu), true});

    // A resume iteration far past the workload's end.
    cases.push_back({"resume iteration 2^40",
                     withU64(afterTag("progress"), 1ULL << 40), true});

    // Byte flips, spread evenly over the sections rather than the
    // bytes (the L2 lines would otherwise take nearly every flip).
    Rng rng(20260416);
    while (cases.size() < 200) {
        const std::size_t s = rng.below(tags_.size());
        const std::size_t begin = tags_[s];
        const std::size_t end =
            s + 1 < tags_.size() ? tags_[s + 1] : body_.size();
        const std::size_t pos = begin + rng.below(end - begin);
        std::string body = body_;
        body[pos] = static_cast<char>(body[pos] ^ (1 + rng.below(255)));
        cases.push_back(
            {"byte flip at " + std::to_string(pos), std::move(body),
             false});
    }

    for (const Case& c : cases) {
        const bool resumed = restores(c.body, c.what);
        EXPECT_FALSE(c.mustReject && resumed) << c.what;
    }
}

// Serializable collectors (metrics, timeline, causal) round-trip with
// the machine state: a restored observability run reproduces the
// uninterrupted run's outputs byte for byte.
TEST(SnapshotObs, RestoredObsRunIsByteIdentical)
{
    RunConfig base = smokeConfig();
    base.obs.metrics = true;
    base.obs.timeline = true;
    base.obs.causal = true;
    base.obs.sampleEvery = 1000;

    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Iter, 2};
    capture.snapshotSink = std::make_shared<std::string>();
    const RunResult cold = runWorkload("Jacobi", capture);
    ASSERT_NE(cold.obs, nullptr);

    RunConfig resume = base;
    resume.restoreBlob = capture.snapshotSink;
    const RunResult warm = runWorkload("Jacobi", resume);
    ASSERT_NE(warm.obs, nullptr);

    EXPECT_EQ(warm.totalTime, cold.totalTime);
    EXPECT_EQ(metricsToJson(*warm.obs), metricsToJson(*cold.obs));
    EXPECT_EQ(timelineToJson(*warm.obs), timelineToJson(*cold.obs));
    EXPECT_EQ(causalToJson(warm.obs->causal),
              causalToJson(cold.obs->causal));
}

// ---------------------------------------------------------------------
// Atomic snapshot writes.
// ---------------------------------------------------------------------

TEST(SnapshotFile, WriteIsAtomicAndReadable)
{
    TempFile file;
    // Seed the final name with garbage: the temp+rename publish must
    // replace it wholesale, never append or mix.
    writeFile(file.path(), "stale garbage");
    const std::string payload(1 << 16, 'z');

    // Hand-build a minimal valid container through the public API by
    // capturing a real run, then verify publish-over-existing works.
    const RunConfig base = smokeConfig(ParadigmKind::Memcpy, 2);
    RunConfig capture = base;
    capture.snapshotAt = {snapshot::AtKind::Iter, 1};
    capture.snapshotOut = file.path();
    (void)runWorkload("Jacobi", capture);

    const snapshot::Snapshot snap =
        snapshot::readSnapshotFile(file.path());
    EXPECT_EQ(snap.meta.workload, "Jacobi");
    // No temp file left behind.
    EXPECT_EQ(::access((file.path() + ".tmp.0").c_str(), F_OK), -1);
}

// ---------------------------------------------------------------------
// Warm-started sweeps.
// ---------------------------------------------------------------------

TEST(WarmSweep, WarmOutcomesAreByteIdenticalToCold)
{
    // A fig11-style grid: one warm group (same profile-relevant config,
    // different steady-state knobs) plus an ineligible odd one out.
    std::vector<SweepJob> jobs;
    for (const std::size_t steady : {1u, 2u, 3u}) {
        RunConfig config = smokeConfig(ParadigmKind::Gps, 2);
        config.steadyIterations = steady;
        jobs.push_back({"Jacobi", config, "steady"});
    }
    RunConfig other = smokeConfig(ParadigmKind::Um, 2);
    jobs.push_back({"Jacobi", other, "um"});

    const std::vector<SweepOutcome> cold = runSweep(jobs, 2);
    WarmSweepStats stats;
    const std::vector<SweepOutcome> warm = runSweepWarm(jobs, 2, &stats);

    ASSERT_EQ(cold.size(), warm.size());
    for (std::size_t i = 0; i < cold.size(); ++i) {
        ASSERT_TRUE(cold[i].ok()) << i;
        ASSERT_TRUE(warm[i].ok()) << i;
        EXPECT_EQ(resultToJson(cold[i].result, true),
                  resultToJson(warm[i].result, true))
            << i;
    }

    EXPECT_EQ(stats.groups, 1u);
    EXPECT_EQ(stats.leaders, 1u);
    EXPECT_EQ(stats.followers, 2u);
    EXPECT_EQ(stats.coldFallbacks, 0u);
    EXPECT_GT(stats.leaderWallSeconds, 0.0);
    EXPECT_GT(stats.followerWallSeconds, 0.0);
}

TEST(WarmSweep, SingletonGroupsRunCold)
{
    std::vector<SweepJob> jobs;
    jobs.push_back({"Jacobi", smokeConfig(ParadigmKind::Gps, 2), "a"});
    jobs.push_back({"Nbody", smokeConfig(ParadigmKind::Gps, 2), "b"});
    WarmSweepStats stats;
    const std::vector<SweepOutcome> out = runSweepWarm(jobs, 2, &stats);
    ASSERT_EQ(out.size(), 2u);
    EXPECT_TRUE(out[0].ok());
    EXPECT_TRUE(out[1].ok());
    EXPECT_EQ(stats.groups, 0u);
    EXPECT_EQ(stats.followers, 0u);
}

TEST(WarmSweep, WarmKeyGroupsOnlyProfileRelevantConfig)
{
    const RunConfig base = smokeConfig(ParadigmKind::Gps, 2);
    RunConfig steady = base;
    steady.steadyIterations = 9;
    // Steady-state knobs do not affect the profile-boundary state.
    EXPECT_EQ(warmKey("Jacobi", base), warmKey("Jacobi", steady));
    // GPU count does.
    RunConfig gpus = base;
    gpus.system.numGpus = 4;
    EXPECT_NE(warmKey("Jacobi", base), warmKey("Jacobi", gpus));
    // So does the workload.
    EXPECT_NE(warmKey("Jacobi", base), warmKey("Nbody", base));
}

// ---------------------------------------------------------------------
// Validated numeric parsing (shared by cache caps, --jobs, snapshots).
// ---------------------------------------------------------------------

TEST(EnvParse, ParseSizeTAcceptsOnlyStrictDecimals)
{
    std::size_t out = 99;
    EXPECT_TRUE(parseSizeT("0", out));
    EXPECT_EQ(out, 0u);
    EXPECT_TRUE(parseSizeT("123", out));
    EXPECT_EQ(out, 123u);

    out = 99;
    for (const char* bad : {"", "-1", "+1", " 1", "1 ", "1x", "0x10",
                            "99999999999999999999999999"})
        EXPECT_FALSE(parseSizeT(bad, out)) << bad;
    EXPECT_EQ(out, 99u); // failures leave the output untouched
}

TEST(EnvParse, ParseSizeTOrFallsBackOnBadOrOversizedInput)
{
    EXPECT_EQ(parseSizeTOr("7", "knob", 3), 7u);
    EXPECT_EQ(parseSizeTOr("-1", "knob", 3), 3u);
    EXPECT_EQ(parseSizeTOr("garbage", "knob", 3), 3u);
    // strtoul would wrap "-1" to SIZE_MAX; the validated parser must
    // not let an over-max value through either.
    EXPECT_EQ(parseSizeTOr("5000", "knob", 3, 1024), 3u);
    EXPECT_EQ(parseSizeTOr("1024", "knob", 3, 1024), 1024u);
}

TEST(EnvParse, EnvSizeTReadsValidatesAndDefaults)
{
    ::unsetenv("GPS_TEST_ENV_KNOB");
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 5u);
    ::setenv("GPS_TEST_ENV_KNOB", "42", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 42u);
    ::setenv("GPS_TEST_ENV_KNOB", "-3", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 5u);
    ::setenv("GPS_TEST_ENV_KNOB", "0", 1);
    EXPECT_EQ(envSizeT("GPS_TEST_ENV_KNOB", 5), 0u);
    ::unsetenv("GPS_TEST_ENV_KNOB");
}

} // namespace
} // namespace gps
