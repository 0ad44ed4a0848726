/**
 * @file
 * The KernelCounters and FaultReport field lists: every member gets a
 * distinct value through the list, survives the snapshot round trip,
 * merges, and is exported under its listed name with its own value.
 */

#include <gtest/gtest.h>

#include <string>

#include "api/system.hh"
#include "common/stats.hh"
#include "fault/fault_engine.hh"
#include "obs/metric_registry.hh"
#include "paradigm/paradigm.hh"
#include "snapshot/snapshot.hh"

namespace gps
{
namespace
{

/** Distinct, non-zero values whose doubles are exact. */
std::uint64_t
fieldValue(std::size_t i)
{
    return 1009 * (i + 1) + (std::uint64_t{1} << 40);
}

KernelCounters
distinctCounters()
{
    KernelCounters c;
    for (std::size_t i = 0; i < kernelCounterFields.size(); ++i)
        c.*kernelCounterFields[i].member = fieldValue(i);
    return c;
}

TEST(CounterFields, KernelCountersRoundTripMergeAndExport)
{
    const KernelCounters c = distinctCounters();

    // Snapshot round trip: the progress section carries the totals.
    SystemConfig config;
    config.numGpus = 2;
    MultiGpuSystem system(config);
    auto paradigm = makeParadigm(ParadigmKind::Memcpy, system);
    snapshot::RunnerProgress progress;
    progress.totals = c;
    const snapshot::Snapshot snap = snapshot::decodeSnapshot(
        snapshot::encodeSnapshot(system, *paradigm, nullptr, {}, progress));
    for (const auto& f : kernelCounterFields)
        EXPECT_EQ(snap.progress.totals.*f.member, c.*f.member) << f.name;

    KernelCounters merged;
    merged.merge(c);
    merged.merge(c);
    for (const auto& f : kernelCounterFields)
        EXPECT_EQ(merged.*f.member, 2 * (c.*f.member)) << f.name;

    StatSet stats;
    c.exportStats(stats, "totals");
    EXPECT_EQ(stats.all().size(), kernelCounterFields.size());
    for (const auto& f : kernelCounterFields)
        EXPECT_EQ(stats.get(std::string("totals.") + f.name),
                  static_cast<double>(c.*f.member))
            << f.name;
}

TEST(CounterFields, FaultReportRoundTripAndExport)
{
    SystemConfig config;
    config.numGpus = 2;
    MultiGpuSystem system(config);
    FaultEngine engine(FaultPlan{}, system);
    FaultReport& report = engine.report();
    for (std::size_t i = 0; i < faultReportFields.size(); ++i)
        report.*faultReportFields[i].member = fieldValue(i);

    snapshot::Serializer out;
    snapshot::StateIO out_io(out);
    engine.transferState(out_io);
    FaultEngine restored(FaultPlan{}, system);
    snapshot::Deserializer in(out.bytes());
    snapshot::StateIO in_io(in);
    restored.transferState(in_io);
    EXPECT_TRUE(in.atEnd());
    for (const auto& f : faultReportFields)
        EXPECT_EQ(restored.report().*f.member, report.*f.member) << f.name;

    // One declaration feeds both outputs: every field is a stat and a
    // metric named "faults.<name>", with a unit.
    StatSet stats;
    StatWriter(stats).visit(engine);
    EXPECT_EQ(stats.all().size(), faultReportFields.size());
    for (const auto& f : faultReportFields)
        EXPECT_EQ(stats.get(std::string("faults.") + f.name),
                  static_cast<double>(report.*f.member))
            << f.name;

    MetricRegistry reg;
    MetricRegistrar(reg).visit(engine);
    EXPECT_EQ(reg.size(), faultReportFields.size());
    for (const auto& f : faultReportFields) {
        const MetricDef* def = reg.find(std::string("faults.") + f.name);
        ASSERT_NE(def, nullptr) << f.name;
        ASSERT_NE(f.metricUnit, nullptr) << f.name;
        EXPECT_EQ(def->unit, f.metricUnit) << f.name;
        EXPECT_EQ(def->read(), static_cast<double>(report.*f.member))
            << f.name;
    }
}

} // namespace
} // namespace gps
