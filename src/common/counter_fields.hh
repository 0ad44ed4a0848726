/**
 * @file
 * Field lists for plain counter records (KernelCounters, FaultReport).
 *
 * A record whose members are all std::uint64_t counters lists each of
 * them once, with the name it is reported under; merging, exporting and
 * snapshotting the record loop over that list. coversRecord() lets the
 * list be checked at compile time, so a member added to the record but
 * not to its list fails to build.
 */

#ifndef GPS_COMMON_COUNTER_FIELDS_HH
#define GPS_COMMON_COUNTER_FIELDS_HH

#include <array>
#include <cstddef>
#include <cstdint>

namespace gps
{

/** One std::uint64_t counter of record type R. */
template <typename R>
struct CounterField
{
    std::uint64_t R::*member;
    const char* name; ///< Reported name (snake_case).

    /** Unit of the metric the field is registered as; null if none. */
    const char* metricUnit = nullptr;
};

/**
 * Whether @p fields names every member of R exactly once: as many
 * distinct members as R holds std::uint64_t words.
 */
template <typename R, std::size_t N>
constexpr bool
coversRecord(const std::array<CounterField<R>, N>& fields)
{
    if (N * sizeof(std::uint64_t) != sizeof(R))
        return false;
    for (std::size_t i = 0; i < N; ++i)
        for (std::size_t j = i + 1; j < N; ++j)
            if (fields[i].member == fields[j].member)
                return false;
    return true;
}

} // namespace gps

#endif // GPS_COMMON_COUNTER_FIELDS_HH
