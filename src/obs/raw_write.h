// Async-signal-safe output (write(2) over caller buffers; no allocation,
// locks or stdio) for the crash handler and the file sinks.
// tools/check_signal_safety.py walks this TU.
#ifndef EMCALC_OBS_RAW_WRITE_H_
#define EMCALC_OBS_RAW_WRITE_H_

#include <cstddef>
#include <cstdint>

namespace emcalc::obs {

// All `n` bytes, retrying on EINTR and short writes; false on error.
bool RawWriteAll(int fd, const char* data, size_t n);

// A NUL-terminated string.
void RawWriteStr(int fd, const char* s);

// Decimal digits of `v` into `buf` (room for 20, no NUL); returns their
// count.
size_t FormatU64(uint64_t v, char* buf);

// Decimal digits of `v`.
void RawWriteU64(int fd, uint64_t v);

// Text for inside a JSON string literal, without escaping: quotes and
// backslashes become '\'' and control characters ' ', which keeps the
// signal path trivial (readers tolerate the substitution).
void RawWriteSanitized(int fd, const char* s, size_t n);

}  // namespace emcalc::obs

#endif  // EMCALC_OBS_RAW_WRITE_H_
