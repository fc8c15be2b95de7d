// Encoded logs built from token-text rows, for the clustering,
// saturation and property tests.
#pragma once

#include <gtest/gtest.h>

#include <deque>
#include <initializer_list>
#include <string>
#include <vector>

#include "core/preprocess.h"

namespace bytebrain {

// One EncodedLog per row, count 1, tokens hashed with HashToken. The
// logs view into a PreprocessResult kept for the life of the test
// binary. Tokens must not contain tokenizer delimiters.
inline std::vector<EncodedLog> MakeLogs(
    const std::vector<std::vector<std::string>>& rows) {
  static std::deque<PreprocessResult> keep;
  std::vector<std::string> lines;
  for (const auto& row : rows) {
    std::string line;
    for (const auto& tok : row) line += (line.empty() ? "" : " ") + tok;
    lines.push_back(std::move(line));
  }
  PreprocessOptions opts;
  opts.deduplicate = false;
  keep.push_back(Preprocess(lines, VariableReplacer::None(), opts));
  const std::vector<EncodedLog>& logs = keep.back().logs;
  for (size_t r = 0; r < rows.size(); ++r) {
    if (logs[r].tokens.size() != rows[r].size()) {
      ADD_FAILURE() << "row " << r << " holds a tokenizer delimiter";
    }
  }
  return logs;
}

inline std::vector<EncodedLog> MakeLogs(
    std::initializer_list<std::vector<std::string>> rows) {
  return MakeLogs(std::vector<std::vector<std::string>>(rows));
}

}  // namespace bytebrain
