// bbparse: command-line log parsing through the service API.
//
// Reads a plain log file (or a Logparser-format structured CSV), pushes
// it through a local ServiceFrontend — create topic, batch ingest with
// automatic training, force a final training — and prints the
// discovered templates with counts at the requested precision via the
// paginated Query API. The same calls, byte for byte, work against a
// remote frontend once a transport is mounted.
//
//   ./examples/bbparse_cli <file.log> [saturation-threshold] [max-templates]
//   ./examples/bbparse_cli access.log 0.6 40
#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include "api/frontend.h"
#include "api/messages.h"
#include "datagen/loghub_loader.h"

using namespace bytebrain;

int main(int argc, char** argv) {
  if (argc < 2) {
    std::fprintf(stderr,
                 "usage: %s <file.log|file_structured.csv> "
                 "[saturation-threshold=0.6] [max-templates=50]\n",
                 argv[0]);
    return 2;
  }
  const std::string path = argv[1];
  const double threshold = argc > 2 ? std::atof(argv[2]) : 0.6;
  const uint32_t max_templates =
      argc > 3 ? static_cast<uint32_t>(std::atoll(argv[3])) : 50;

  auto dataset =
      path.ends_with(".csv") ? LoadStructuredCsv(path) : LoadPlainLog(path);
  if (!dataset.ok()) {
    std::fprintf(stderr, "load failed: %s\n",
                 dataset.status().ToString().c_str());
    return 1;
  }
  std::vector<std::string> logs;
  logs.reserve(dataset->logs.size());
  for (auto& l : dataset->logs) logs.push_back(std::move(l.text));
  std::fprintf(stderr, "loaded %zu logs from %s\n", logs.size(),
               path.c_str());

  api::ServiceFrontend frontend;
  const std::string tenant = "cli";

  api::CreateTopicRequest create;
  create.name = "input";
  create.config.num_threads = 2;
  create.config.async_training = false;  // deterministic one-shot run
  // One-shot CLI: train over the WHOLE file (the service default caps a
  // training window at 200k records — an OOM guard for unbounded
  // streams that doesn't apply to a file already held in memory).
  create.config.max_train_records = std::max<uint64_t>(1, logs.size());
  api::CreateTopicResponse created;
  Status status = frontend.CreateTopic(tenant, create, &created);
  if (!status.ok()) {
    std::fprintf(stderr, "create failed: %s\n", status.ToString().c_str());
    return 1;
  }

  api::IngestBatchRequest ingest;
  ingest.topic = "input";
  ingest.texts = std::move(logs);
  api::IngestBatchResponse ingested;
  status = frontend.IngestBatch(tenant, std::move(ingest), &ingested);
  if (!status.ok()) {
    std::fprintf(stderr, "ingest failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Fold the full window — including post-training adoptions — into
  // one final model before querying.
  api::TrainNowRequest train;
  train.topic = "input";
  api::TrainNowResponse trained;
  status = frontend.TrainNow(tenant, train, &trained);
  if (!status.ok()) {
    std::fprintf(stderr, "training failed: %s\n", status.ToString().c_str());
    return 1;
  }

  // Paginated query: one page of `max_templates` groups, counts only.
  api::QueryRequest query;
  query.topic = "input";
  query.saturation_threshold = threshold;
  query.max_groups = max_templates;
  query.include_sequence_numbers = false;
  api::QueryResponse result;
  status = frontend.Query(tenant, query, &result);
  if (!status.ok()) {
    std::fprintf(stderr, "query failed: %s\n", status.ToString().c_str());
    return 1;
  }

  std::printf("# top %zu templates at saturation >= %.2f%s\n",
              result.groups.size(), threshold,
              result.next_cursor.empty() ? "" : " (more pages available)");
  for (const auto& g : result.groups) {
    std::printf("%10llu  %s\n", static_cast<unsigned long long>(g.count),
                g.template_text.c_str());
  }
  return 0;
}
