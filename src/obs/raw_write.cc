#include "src/obs/raw_write.h"

#include <unistd.h>

#include <cerrno>
#include <cstring>

namespace emcalc::obs {

bool RawWriteAll(int fd, const char* data, size_t n) {
  while (n > 0) {
    ssize_t w = ::write(fd, data, n);
    if (w <= 0) {
      if (w < 0 && errno == EINTR) continue;
      return false;
    }
    data += w;
    n -= static_cast<size_t>(w);
  }
  return true;
}

void RawWriteStr(int fd, const char* s) { RawWriteAll(fd, s, std::strlen(s)); }

size_t FormatU64(uint64_t v, char* buf) {
  char digits[20];
  size_t n = 0;
  do {
    digits[n++] = static_cast<char>('0' + v % 10);
    v /= 10;
  } while (v != 0);
  for (size_t i = 0; i < n; ++i) buf[i] = digits[n - 1 - i];
  return n;
}

void RawWriteU64(int fd, uint64_t v) {
  char buf[20];
  RawWriteAll(fd, buf, FormatU64(v, buf));
}

void RawWriteSanitized(int fd, const char* s, size_t n) {
  char buf[256];
  size_t len = 0;
  for (size_t i = 0; i < n; ++i) {
    char c = s[i];
    if (c == '"' || c == '\\') c = '\'';
    if (static_cast<unsigned char>(c) < 0x20) c = ' ';
    buf[len++] = c;
    if (len == sizeof(buf)) {
      RawWriteAll(fd, buf, len);
      len = 0;
    }
  }
  RawWriteAll(fd, buf, len);
}

}  // namespace emcalc::obs
