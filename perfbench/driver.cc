// perfbench_driver — one seeded run of one service workload.
//
//   perfbench_driver --workload <parse_loghub2|ingest_durable|query_mixed>
//                    --seed <n> --seconds <s> --trace <0|1>
//                    --tmp <dir> [--spans <file>] [--tiny]
//                    [--corrupt <drop_ack|drop_page|scramble_groups>]
//
// Prints one line per named metric for the reader, then, as the last
// line of standard output, one JSON object: {"correct", "attempted",
// "failed", "metrics"}. With --trace 0 the metrics are the end-to-end
// ones; with --trace 1 the per-layer ones from the traced run. Exits 1
// when an output check fails, 2 on a usage or set-up error.
#include <cmath>
#include <cstdio>
#include <cstring>
#include <filesystem>
#include <stdexcept>
#include <string>

#include "common.h"

namespace {

using perfbench::Corrupt;
using perfbench::Options;
using perfbench::Report;

[[noreturn]] void Usage(const char* why) {
  std::fprintf(stderr, "perfbench_driver: %s\n", why);
  std::exit(2);
}

Options ParseArgs(int argc, char** argv) {
  Options opt;
  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    const auto value = [&]() -> std::string {
      if (i + 1 >= argc) Usage(("missing value for " + arg).c_str());
      return argv[++i];
    };
    if (arg == "--workload") {
      opt.workload = value();
    } else if (arg == "--seed") {
      opt.seed = std::stoull(value());
    } else if (arg == "--seconds") {
      opt.seconds = std::stod(value());
    } else if (arg == "--trace") {
      opt.trace = value() == "1";
    } else if (arg == "--tmp") {
      opt.tmp_dir = value();
    } else if (arg == "--spans") {
      opt.spans_out = value();
    } else if (arg == "--tiny") {
      opt.tiny = true;
    } else if (arg == "--corrupt") {
      const std::string c = value();
      if (c == "drop_ack") {
        opt.corrupt = Corrupt::kDropAck;
      } else if (c == "drop_page") {
        opt.corrupt = Corrupt::kDropPage;
      } else if (c == "scramble_groups") {
        opt.corrupt = Corrupt::kScrambleGroups;
      } else {
        Usage("unknown --corrupt mode");
      }
    } else {
      Usage(("unknown argument " + arg).c_str());
    }
  }
  if (opt.workload.empty()) Usage("--workload is required");
  if (opt.tmp_dir.empty()) Usage("--tmp is required");
  if (!(opt.seconds > 0)) Usage("--seconds must be positive");
  return opt;
}

void PrintJson(const Report& report, bool trace) {
  const auto& metrics = trace ? report.layer : report.e2e;
  std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
              "\"metrics\": {",
              report.errors.empty() ? "true" : "false",
              static_cast<unsigned long long>(report.attempted),
              static_cast<unsigned long long>(report.failed));
  bool first = true;
  for (const auto& [name, value] : metrics) {
    const double v = std::isfinite(value.first) ? value.first : 0.0;
    std::printf("%s\"%s\": {\"value\": %.17g, \"unit\": \"%s\"}",
                first ? "" : ", ", name.c_str(), v, value.second.c_str());
    first = false;
  }
  std::printf("}}\n");
}

}  // namespace

int main(int argc, char** argv) {
  const Options opt = ParseArgs(argc, argv);
  Report report;
  perfbench::SpanLog spans;
  int code = 0;
  try {
    std::filesystem::create_directories(opt.tmp_dir);
    if (opt.workload == "parse_loghub2") {
      perfbench::RunParse(opt, &spans, &report);
    } else if (opt.workload == "ingest_durable") {
      perfbench::RunIngest(opt, &spans, &report);
    } else if (opt.workload == "query_mixed") {
      perfbench::RunQuery(opt, &spans, &report);
    } else {
      Usage(("unknown workload " + opt.workload).c_str());
    }
  } catch (const std::exception& e) {
    std::fprintf(stderr, "perfbench_driver: %s\n", e.what());
    code = 2;
  }
  std::error_code ec;
  std::filesystem::remove_all(opt.tmp_dir, ec);
  if (code != 0) return code;

  if (opt.trace && !opt.spans_out.empty()) {
    if (!spans.WriteJsonLines(opt.spans_out)) {
      report.Check(false, "could not write spans to " + opt.spans_out);
    }
    report.Info("trace.spans", static_cast<double>(spans.size()), "spans");
  }
  if (report.attempted == 0) report.Check(false, "no operation attempted");
  std::printf("workload %s seed %llu seconds %g trace %d\n",
              opt.workload.c_str(), static_cast<unsigned long long>(opt.seed),
              opt.seconds, opt.trace ? 1 : 0);
  for (const std::string& line : report.info) std::printf("  %s\n", line.c_str());
  const auto& metrics = opt.trace ? report.layer : report.e2e;
  for (const auto& [name, value] : metrics) {
    std::printf("  %-34s %.6g %s\n", name.c_str(), value.first,
                value.second.c_str());
  }
  for (const std::string& e : report.errors) {
    std::printf("CHECK FAILED: %s\n", e.c_str());
  }
  PrintJson(report, opt.trace);
  std::fflush(stdout);
  return report.errors.empty() ? 0 : 1;
}
