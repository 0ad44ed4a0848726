#include "snapshot/snapshot.hh"

#include <atomic>
#include <cerrno>
#include <cstdio>
#include <cstring>
#include <sstream>

#include <unistd.h>

#include "api/system.hh"
#include "check/invariants.hh"
#include "common/crc32.hh"
#include "core/gps_paradigm.hh"
#include "fault/fault_engine.hh"
#include "paradigm/paradigm.hh"

namespace gps::snapshot
{

namespace
{

constexpr char magic[8] = {'G', 'P', 'S', 'S', 'N', 'A', 'P', '\0'};
constexpr std::size_t headerBytes = sizeof(magic) + 4 + 4 + 8;

/** Parse a strict decimal suffix for "iter:N" / "phase:N". */
bool
parseDecimal(const std::string& text, std::uint64_t& out)
{
    if (text.empty() || text.size() > 19)
        return false;
    std::uint64_t value = 0;
    for (const char c : text) {
        if (c < '0' || c > '9')
            return false;
        value = value * 10 + static_cast<std::uint64_t>(c - '0');
    }
    out = value;
    return true;
}

void
transferMeta(StateIO& io, SnapshotMeta& meta)
{
    io.section("meta");
    io.str(meta.workload);
    io.u8(meta.paradigm);
    io.u32(meta.numGpus);
    io.u64(meta.pageBytes);
    io.f64(meta.scale);
    io.str(meta.stateKey);
}

void
transferProgress(StateIO& io, RunnerProgress& p)
{
    io.section("progress");
    io.u64(p.resumeIter);
    io.u64(p.resumePhase);
    io.u64(p.globalPhases);
    io.u64(p.tBefore);
    io.u64(p.bBefore);
    for (const auto& f : kernelCounterFields)
        io.u64(p.totals.*f.member);
    io.u64s(p.iterTime, 1ULL << 32);
    io.u64s(p.iterBytes, 1ULL << 32);
    io.b(p.hasSubscriberHist);
    io.u64s(p.histBuckets, 1ULL << 16);
    io.b(p.hasObs);
    io.str(p.obsState);
}

/**
 * The machine-state sections, "events" through the paradigm. Loading
 * overwrites a freshly constructed and set-up system.
 */
void
transferMachine(StateIO& io, MultiGpuSystem& system, Paradigm& paradigm,
                FaultEngine* faults)
{
    io.section("events");
    Tick now = system.now();
    io.u64(now);
    if (io.loading())
        system.advanceTo(now);
    system.topology().transferState(io);
    for (std::size_t g = 0; g < system.numGpus(); ++g)
        system.gpu(static_cast<GpuId>(g)).transferState(io);
    system.driver().transferState(io);
    bool had_faults = faults != nullptr;
    io.b(had_faults);
    if (had_faults != (faults != nullptr))
        throw SnapshotError(
            had_faults
                ? "snapshot has fault-injection state but this run has "
                  "no fault plan"
                : "this run has a fault plan but the snapshot has no "
                  "fault-injection state");
    if (faults != nullptr)
        faults->transferState(io);
    paradigm.transferState(io);
}

/** The GPS paradigm behind @p paradigm, or nullptr for others. */
GpsParadigm*
asGps(Paradigm& paradigm)
{
    return paradigm.kind() == ParadigmKind::Gps
               ? static_cast<GpsParadigm*>(&paradigm)
               : nullptr;
}

bool
fsyncFile(std::FILE* f)
{
    return ::fsync(::fileno(f)) == 0;
}

} // namespace

bool
parseSnapshotPoint(const std::string& text, SnapshotPoint& out)
{
    if (text == "profile") {
        out.kind = AtKind::Profile;
        out.n = 0;
        return true;
    }
    std::uint64_t n = 0;
    if (text.rfind("iter:", 0) == 0 && parseDecimal(text.substr(5), n) &&
        n >= 1) {
        out.kind = AtKind::Iter;
        out.n = n;
        return true;
    }
    if (text.rfind("phase:", 0) == 0 &&
        parseDecimal(text.substr(6), n) && n >= 1) {
        out.kind = AtKind::Phase;
        out.n = n;
        return true;
    }
    return false;
}

std::string
to_string(const SnapshotPoint& point)
{
    switch (point.kind) {
      case AtKind::None: return "none";
      case AtKind::Iter: return "iter:" + std::to_string(point.n);
      case AtKind::Phase: return "phase:" + std::to_string(point.n);
      case AtKind::Profile: return "profile";
    }
    return "none";
}

std::string
buildSummary(MultiGpuSystem& system, Paradigm& paradigm)
{
    std::ostringstream os;
    system.driver().pageStates().forEach(
        [&os](PageNum vpn, const PageState& st) {
            os << "page " << vpn << " kind="
               << static_cast<unsigned>(st.kind)
               << " loc=" << st.location << " mapped=" << st.mapped
               << " backed=" << st.backed << " subs=" << st.subscribers
               << " collapsed=" << (st.collapsed ? 1 : 0)
               << " lastWriter=" << st.lastWriter << '\n';
        });
    for (std::size_t g = 0; g < system.numGpus(); ++g) {
        const PhysicalMemory& mem =
            system.gpu(static_cast<GpuId>(g)).memory();
        os << "gpu " << g << " inuse=" << mem.framesInUse()
           << " retired=" << mem.framesRetired()
           << " free=" << mem.framesFree() << '\n';
    }
    if (GpsParadigm* gps = asGps(paradigm)) {
        for (std::size_t g = 0; g < system.numGpus(); ++g) {
            const RemoteWriteQueue& wq =
                gps->writeQueue(static_cast<GpuId>(g));
            os << "wq " << g << " occ=" << wq.occupancy()
               << " resident=" << wq.residentEntries()
               << " weight=" << wq.weightSum() << '\n';
        }
        os << "gpstable live="
           << gps->gpsPageTable().size()
           << '\n';
    }
    return os.str();
}

std::string
encodeSnapshot(MultiGpuSystem& system, Paradigm& paradigm,
               FaultEngine* faults, SnapshotMeta meta,
               RunnerProgress progress)
{
    Serializer body;
    StateIO io(body);
    transferMeta(io, meta);
    transferProgress(io, progress);
    transferMachine(io, system, paradigm, faults);
    std::string summary = buildSummary(system, paradigm);
    io.section("summary");
    io.str(summary);

    Serializer file;
    for (const char c : magic)
        file.u8(static_cast<std::uint8_t>(c));
    file.u32(snapshotVersion);
    file.u32(crc32Of(body.bytes()));
    file.u64(body.bytes().size());
    std::string out = file.bytes();
    out += body.bytes();
    return out;
}

Snapshot
decodeSnapshot(const std::string& bytes)
{
    if (bytes.size() < headerBytes)
        throw SnapshotError("truncated snapshot: " +
                            std::to_string(bytes.size()) +
                            " bytes is smaller than the header");
    if (std::memcmp(bytes.data(), magic, sizeof(magic)) != 0)
        throw SnapshotError("not a GPS snapshot (bad magic)");
    Deserializer header(bytes);
    for (std::size_t i = 0; i < sizeof(magic); ++i)
        header.u8();
    const std::uint32_t version = header.u32();
    if (version != snapshotVersion)
        throw SnapshotError(
            "unsupported snapshot version " + std::to_string(version) +
            " (this build reads version " +
            std::to_string(snapshotVersion) + ")");
    const std::uint32_t crc_stored = header.u32();
    const std::uint64_t body_len = header.u64();
    if (bytes.size() - headerBytes != body_len)
        throw SnapshotError(
            "truncated snapshot: header promises " +
            std::to_string(body_len) + " body bytes, file has " +
            std::to_string(bytes.size() - headerBytes));

    Snapshot snap;
    snap.body = bytes.substr(headerBytes);
    if (crc32Of(snap.body) != crc_stored)
        throw SnapshotError("corrupt snapshot: body CRC mismatch");

    Deserializer body(snap.body);
    StateIO io(body);
    transferMeta(io, snap.meta);
    transferProgress(io, snap.progress);
    return snap;
}

Snapshot
readSnapshotFile(const std::string& path)
{
    std::FILE* f = std::fopen(path.c_str(), "rb");
    if (f == nullptr)
        throw SnapshotError("cannot open snapshot '" + path +
                            "': " + std::strerror(errno));
    std::string bytes;
    char buf[1 << 16];
    std::size_t got = 0;
    while ((got = std::fread(buf, 1, sizeof(buf), f)) > 0)
        bytes.append(buf, got);
    const bool read_err = std::ferror(f) != 0;
    std::fclose(f);
    if (read_err)
        throw SnapshotError("cannot read snapshot '" + path + "'");
    try {
        return decodeSnapshot(bytes);
    } catch (const SnapshotError& e) {
        throw SnapshotError("snapshot '" + path + "': " + e.what());
    }
}

void
writeSnapshotFile(const std::string& path, const std::string& bytes)
{
    static std::atomic<std::uint64_t> seq{0};
    const std::string tmp = path + ".tmp." +
                            std::to_string(::getpid()) + '.' +
                            std::to_string(++seq);
    std::FILE* f = std::fopen(tmp.c_str(), "wb");
    if (f == nullptr)
        throw SnapshotError("cannot create snapshot temp '" + tmp +
                            "': " + std::strerror(errno));
    bool ok = std::fwrite(bytes.data(), 1, bytes.size(), f) ==
              bytes.size();
    // User-space flush, then device flush, then rename: the snapshot
    // only becomes visible under its final name once its bytes are
    // durable (same ordering as RunStore::publish).
    ok = ok && std::fflush(f) == 0 && fsyncFile(f);
    if (std::fclose(f) != 0)
        ok = false;
    if (!ok) {
        const std::string reason = std::strerror(errno);
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot write snapshot '" + path +
                            "': " + reason);
    }
    if (::rename(tmp.c_str(), path.c_str()) != 0) {
        const std::string reason = std::strerror(errno);
        ::unlink(tmp.c_str());
        throw SnapshotError("cannot publish snapshot '" + path +
                            "': " + reason);
    }
}

void
applyState(const Snapshot& snap, MultiGpuSystem& system,
           Paradigm& paradigm, FaultEngine* faults, bool mutateForTest)
{
    Deserializer in(snap.body);
    StateIO io(in);
    SnapshotMeta meta;
    RunnerProgress progress;
    transferMeta(io, meta);
    transferProgress(io, progress);
    transferMachine(io, system, paradigm, faults);
    std::string stored;
    io.section("summary");
    io.str(stored);
    if (!in.atEnd())
        throw SnapshotError("corrupt snapshot: trailing bytes after "
                            "the summary section");

    if (mutateForTest) {
        // Seeded divergence for the verification tests: flip one bit of
        // a page's subscriber set so the summary comparison must trip.
        PageNum victim = 0;
        bool found = false;
        system.driver().pageStates().forEach(
            [&victim, &found](PageNum vpn, const PageState&) {
                if (!found) {
                    victim = vpn;
                    found = true;
                }
            });
        if (found)
            system.driver().state(victim).subscribers ^= gpuBit(0);
    }

    const std::string live = buildSummary(system, paradigm);
    if (live != stored) {
        // Name the first differing line so the error localizes the
        // divergence instead of just declaring it.
        std::istringstream a(stored), b(live);
        std::string la, lb;
        while (std::getline(a, la) && std::getline(b, lb))
            if (la != lb)
                break;
        throw SnapshotError(
            "restore verification failed: live state diverges from the "
            "snapshot summary (snapshot: '" + la + "', live: '" + lb +
            "')");
    }

    CheckReport report;
    InvariantChecker checker(system, asGps(paradigm));
    checker.runAll("restore", report);
    if (!report.ok())
        throw SnapshotError(
            "restore verification failed: invariant violation: " +
            describe(report.findings.empty() ? CheckFinding{}
                                             : report.findings.front()));
}

} // namespace gps::snapshot
