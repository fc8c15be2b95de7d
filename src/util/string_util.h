// Human-readable number formatting for benches and examples.
#pragma once

#include <cstdint>
#include <string>

namespace bytebrain {

/// Formats a byte count as "12.3 KB" / "4.5 MB" etc.
std::string FormatBytes(uint64_t bytes);

/// Formats a count with thousands separators: 1234567 -> "1,234,567".
std::string FormatCount(uint64_t count);

}  // namespace bytebrain
