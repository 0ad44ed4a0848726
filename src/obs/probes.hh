/**
 * @file
 * The one record through which components reach the run's observers.
 *
 * MultiGpuSystem owns a Probes record and hands its address to every
 * component it builds (topology, driver) and to every component built on
 * top of it (paradigm-owned write queues and subscription manager, the
 * fault engine). The runner fills the fields it enables for a run and
 * clears the record at the end; each component tests the field it feeds
 * at the point it would emit. A null field costs one pointer test.
 */

#ifndef GPS_OBS_PROBES_HH
#define GPS_OBS_PROBES_HH

namespace gps
{

class TimelineRecorder;
class ProfileCollector;
class CausalRecorder;
class GpsCheckSink;

/** Observers active for one run; every field is optional. */
struct Probes
{
    TimelineRecorder* recorder = nullptr;
    ProfileCollector* profile = nullptr;
    CausalRecorder* causal = nullptr;
    GpsCheckSink* check = nullptr;
};

/** Always-empty record for components built outside a system. */
inline const Probes noProbes{};

} // namespace gps

#endif // GPS_OBS_PROBES_HH
