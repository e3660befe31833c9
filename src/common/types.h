#ifndef ODH_COMMON_TYPES_H_
#define ODH_COMMON_TYPES_H_

#include <cstdint>
#include <limits>
#include <string>

namespace odh {

/// Microseconds since the Unix epoch. All operational records carry one.
using Timestamp = int64_t;

inline constexpr Timestamp kMinTimestamp =
    std::numeric_limits<Timestamp>::min();
inline constexpr Timestamp kMaxTimestamp =
    std::numeric_limits<Timestamp>::max();

inline constexpr int64_t kMicrosPerSecond = 1'000'000;
inline constexpr int64_t kMicrosPerMinute = 60 * kMicrosPerSecond;
inline constexpr int64_t kMicrosPerHour = 60 * kMicrosPerMinute;

/// Identifies a data source (sensor / device / meter / account).
using SourceId = int64_t;

/// Index of a tag (measurement attribute) within a schema type.
using TagIndex = int32_t;

/// Formats a Timestamp as "YYYY-MM-DD HH:MM:SS[.ffffff]" (UTC).
std::string FormatTimestamp(Timestamp ts);

/// Parses "YYYY-MM-DD HH:MM:SS[.ffffff]" (UTC, years 1-9999, 1-6 fraction
/// digits) into microseconds since epoch; the inverse of FormatTimestamp.
/// Returns false on malformed input, an out-of-range field or trailing text.
bool ParseTimestamp(const std::string& text, Timestamp* out);

}  // namespace odh

#endif  // ODH_COMMON_TYPES_H_
