/**
 * @file
 * Simulated-time timeline recorder emitting Chrome trace-event JSON.
 *
 * Records kernel/phase executions, link transfers, write-queue drains,
 * page migrations and fault injections as trace events loadable in
 * Perfetto or chrome://tracing. Durations and timestamps are simulated
 * time converted to microseconds (the trace-event format's native unit).
 *
 * Components below the runner (driver, write queues, fault engine) do
 * not know the current tick; the runner advances the recorder's stamp at
 * phase boundaries and those components record against it, so
 * intra-phase events land at the tick of the phase that produced them.
 *
 * The recorder is bounded: past `maxEvents` new events are dropped and
 * counted, so pathological runs degrade to a truncated trace instead of
 * exhausting memory.
 */

#ifndef GPS_OBS_TIMELINE_HH
#define GPS_OBS_TIMELINE_HH

#include <cstdint>
#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/types.hh"
#include "snapshot/serial.hh"

namespace gps
{

/** One Chrome trace event (subset of the spec the simulator emits). */
struct TraceEvent
{
    std::string name;
    std::string cat;

    /**
     * Phase letter: 'X' complete, 'i' instant, 'C' counter,
     * 's'/'f' flow start/finish (Perfetto arrows).
     */
    char ph = 'X';

    /** Track (rendered as a thread row); see TimelineRecorder tids. */
    int tid = 0;

    Tick ts = 0;  ///< start tick
    Tick dur = 0; ///< duration in ticks (complete events only)

    /** Flow-arrow id pairing 's' and 'f' endpoints; 0 elsewhere. */
    std::uint64_t flowId = 0;

    /** Numeric args shown in the event detail pane. */
    std::vector<std::pair<std::string, double>> args;
};

/** Bounded recorder producing Chrome trace-event JSON. */
class TimelineRecorder
{
  public:
    explicit TimelineRecorder(std::size_t max_events = 1 << 20)
        : maxEvents_(max_events)
    {}

    /** Track ids: GPUs occupy [0, numGpus); these rows sit below. */
    static constexpr int systemTid = 1000;  ///< phases, barriers
    static constexpr int faultTid = 1001;   ///< fault injections
    static constexpr int driverTid = 1002;  ///< migrations, prefetches

    /** Per-node uplink lanes: node @c n records at uplinkTidBase + n. */
    static constexpr int uplinkTidBase = 1100;

    /** Advance the stamp components record stampless events against. */
    void advanceTo(Tick now) { now_ = now; }
    Tick now() const { return now_; }

    /** Label a track in the viewer (emitted as metadata events). */
    void nameTrack(int tid, std::string label);

    /** Record a complete ('X') event spanning [start, start + dur]. */
    void complete(int tid, std::string name, std::string cat, Tick start,
                  Tick dur,
                  std::vector<std::pair<std::string, double>> args = {});

    /** Record an instant ('i') event at an explicit tick. */
    void instant(int tid, std::string name, std::string cat, Tick ts,
                 std::vector<std::pair<std::string, double>> args = {});

    /** Record an instant event at the current stamp. */
    void
    instantNow(int tid, std::string name, std::string cat,
               std::vector<std::pair<std::string, double>> args = {})
    {
        instant(tid, std::move(name), std::move(cat), now_,
                std::move(args));
    }

    /** Record a counter ('C') sample at the current stamp. */
    void counterNow(std::string name, double value);

    /**
     * Record one endpoint of a flow arrow ('s' start / 'f' finish);
     * both endpoints share @p id, which pairs them in the viewer.
     */
    void flow(int tid, std::string name, std::string cat, Tick ts,
              std::uint64_t id, bool start);

    const std::vector<TraceEvent>& events() const { return events_; }
    const std::map<int, std::string>& trackNames() const
    {
        return trackNames_;
    }

    /** Events discarded after the cap was reached. */
    std::uint64_t dropped() const { return dropped_; }

    /**
     * The full recorder state (stamp, events, track names, drop count)
     * so a restored run replays to an identical trace.
     */
    void transferState(snapshot::StateIO& io);

  private:
    bool admit();

    std::size_t maxEvents_;
    Tick now_ = 0;
    std::vector<TraceEvent> events_;
    std::map<int, std::string> trackNames_;
    std::uint64_t dropped_ = 0;
};

/**
 * Serialize as one Chrome trace JSON document:
 * {"traceEvents": [...], "displayTimeUnit": "ms", ...}.
 */
std::string timelineToJson(const std::vector<TraceEvent>& events,
                           const std::map<int, std::string>& track_names,
                           std::uint64_t dropped);

} // namespace gps

#endif // GPS_OBS_TIMELINE_HH
