#include "util/string_util.h"

#include <cstdio>

namespace bytebrain {

std::string FormatBytes(uint64_t bytes) {
  const char* units[] = {"B", "KB", "MB", "GB", "TB"};
  double v = static_cast<double>(bytes);
  int u = 0;
  while (v >= 1024.0 && u < 4) {
    v /= 1024.0;
    ++u;
  }
  char buf[32];
  std::snprintf(buf, sizeof(buf), "%.2f %s", v, units[u]);
  return buf;
}

std::string FormatCount(uint64_t count) {
  std::string digits = std::to_string(count);
  std::string out;
  out.reserve(digits.size() + digits.size() / 3);
  int c = 0;
  for (auto it = digits.rbegin(); it != digits.rend(); ++it) {
    if (c > 0 && c % 3 == 0) out.push_back(',');
    out.push_back(*it);
    ++c;
  }
  return std::string(out.rbegin(), out.rend());
}

}  // namespace bytebrain
