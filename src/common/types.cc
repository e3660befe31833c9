#include "common/types.h"

#include <cstdint>
#include <cstdio>
#include <ctime>

namespace odh {

std::string FormatTimestamp(Timestamp ts) {
  time_t secs = static_cast<time_t>(ts / kMicrosPerSecond);
  int64_t micros = ts % kMicrosPerSecond;
  if (micros < 0) {
    micros += kMicrosPerSecond;
    --secs;
  }
  struct tm tm_buf;
  gmtime_r(&secs, &tm_buf);
  char buf[64];
  size_t n = strftime(buf, sizeof(buf), "%Y-%m-%d %H:%M:%S", &tm_buf);
  std::string out(buf, n);
  if (micros != 0) {
    char frac[16];
    snprintf(frac, sizeof(frac), ".%06lld", static_cast<long long>(micros));
    out += frac;
  }
  return out;
}

namespace {

/// Days from 1970-01-01 to the proleptic Gregorian date y-m-d (negative
/// before the epoch); H. Hinnant's days_from_civil.
int64_t DaysFromCivil(int64_t y, int64_t m, int64_t d) {
  y -= m <= 2;
  const int64_t era = (y >= 0 ? y : y - 399) / 400;
  const int64_t yoe = y - era * 400;
  const int64_t doy = (153 * (m > 2 ? m - 3 : m + 9) + 2) / 5 + d - 1;
  const int64_t doe = yoe * 365 + yoe / 4 - yoe / 100 + doy;
  return era * 146097 + doe - 719468;
}

int DaysInMonth(int year, int month) {
  static constexpr int kDays[12] = {31, 28, 31, 30, 31, 30,
                                    31, 31, 30, 31, 30, 31};
  const bool leap = (year % 4 == 0 && year % 100 != 0) || year % 400 == 0;
  return month == 2 && leap ? 29 : kDays[month - 1];
}

}  // namespace

bool ParseTimestamp(const std::string& text, Timestamp* out) {
  int year, month, day, hour, minute, second;
  int consumed = 0;
  if (sscanf(text.c_str(), "%d-%d-%d %d:%d:%d%n", &year, &month, &day, &hour,
             &minute, &second, &consumed) != 6) {
    return false;
  }
  if (year < 1 || year > 9999 || month < 1 || month > 12 || day < 1 ||
      day > DaysInMonth(year, month) || hour < 0 || hour > 23 || minute < 0 ||
      minute > 59 || second < 0 || second > 59) {
    return false;
  }
  // Optional fraction: '.' and 1-6 digits (microseconds), as
  // FormatTimestamp writes it. Nothing may follow.
  const char* p = text.c_str() + consumed;
  int64_t micros = 0;
  if (*p == '.') {
    ++p;
    int digits = 0;
    for (; *p >= '0' && *p <= '9'; ++p) {
      if (++digits > 6) return false;
      micros = micros * 10 + (*p - '0');
    }
    if (digits == 0) return false;
    for (; digits < 6; ++digits) micros *= 10;
  }
  if (*p != '\0') return false;
  const int64_t secs = DaysFromCivil(year, month, day) * 86400 +
                       hour * 3600 + minute * 60 + second;
  *out = secs * kMicrosPerSecond + micros;
  return true;
}

}  // namespace odh
