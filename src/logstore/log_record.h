// Core record types for the log service substrate (paper §3).
#pragma once

#include <cstdint>
#include <string>

#include "util/template_id.h"

namespace bytebrain {

/// One log record in a topic. Template IDs are computed at ingestion by
/// the online matcher, alongside traditional text indices, before the
/// record lands in the append-only topic (paper §3 "Online Matching").
struct LogRecord {
  uint64_t timestamp_us = 0;
  std::string text;
  TemplateId template_id = kInvalidTemplateId;
};

}  // namespace bytebrain
