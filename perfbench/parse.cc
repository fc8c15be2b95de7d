// parse_loghub2: the paper's offline parse (Fig. 6 throughput, Table 3
// accuracy). For each of the 14 LogHub-2.0 specs one ByteBrainParser
// trains on the corpus and matches all of it with the default 4-thread
// configuration; groups are resolved at the adapter's 0.45 threshold and
// scored against the generator's labels.
#include "common.h"
#include "eval/bytebrain_adapter.h"
#include "eval/metrics.h"

namespace perfbench {
namespace {

using bytebrain::ByteBrainParser;
using bytebrain::TemplateId;

constexpr size_t kBatch = 512;

struct ParseOutcome {
  bool ok = false;
  double ga = 0;
};

/// Train + MatchAll + resolve on one corpus; only the parser calls are
/// timed (into `op`).
ParseOutcome ParseOne(const bytebrain::ByteBrainAdapterConfig& config,
                      const Corpus& corpus, const Options& opt,
                      std::vector<Span>* spans, uint64_t request_id,
                      OpSample* op) {
  ParseOutcome out;
  const uint64_t t0 = NowNs();
  ByteBrainParser parser(config.options);
  const bool trained = parser.Train(corpus.texts).ok();
  const uint64_t t1 = NowNs();
  std::vector<TemplateId> leaves;
  if (trained) leaves = parser.MatchAll(corpus.texts, config.num_threads);
  const uint64_t t2 = NowNs();
  op->end_ns = t2;
  op->latency_ms = static_cast<double>(t2 - t0) / 1e6;
  op->items = corpus.texts.size();
  op->failed = !trained || leaves.size() != corpus.texts.size();
  if (spans != nullptr) {
    const int64_t parent = static_cast<int64_t>(spans->size());
    spans->push_back({"parse.dataset", t0, t2, -1, request_id});
    spans->push_back({"core.train", t0, t1, parent, request_id});
    spans->push_back({"core.match_all", t1, t2, parent, request_id});
  }
  if (op->failed) return out;

  std::vector<uint64_t> groups(leaves.size());
  for (size_t i = 0; i < leaves.size(); ++i) {
    if (leaves[i] == bytebrain::kInvalidTemplateId) {
      groups[i] = (1ULL << 63) | i;  // unmatched: a group of its own
      continue;
    }
    auto resolved = parser.ResolveAtThreshold(leaves[i], config.report_threshold);
    groups[i] = resolved.ok() ? resolved.value() : leaves[i];
  }
  if (opt.corrupt == Corrupt::kScrambleGroups) {
    for (size_t i = 0; i < groups.size(); ++i) groups[i] = i % 2;
  }
  out.ok = true;
  out.ga = bytebrain::GroupingAccuracy(groups, corpus.labels);
  return out;
}

/// Parses the corpora in passes until `seconds` have elapsed (at least
/// one full pass); each pass is one partition of the phase. Returns the
/// per-spec GA of the first pass; later passes must reproduce it.
Phase ParsePhase(const std::vector<Corpus>& corpora,
                 const bytebrain::ByteBrainAdapterConfig& config,
                 const Options& opt, double seconds, SpanLog* spans,
                 std::vector<double>* ga, Report* report) {
  Phase phase;
  for (const Corpus& c : corpora) phase.corpus_bytes += c.HeapBytes();
  std::vector<Span> local_spans;
  {
    RssSampler rss(&phase.rss);
    phase.begin_ns = NowNs();
    const uint64_t deadline =
        phase.begin_ns + static_cast<uint64_t>(seconds * 1e9);
    uint64_t request_id = 0;
    for (int pass = 0; pass == 0 || NowNs() < deadline; ++pass) {
      for (size_t i = 0; i < corpora.size(); ++i) {
        OpSample op;
        const ParseOutcome r = ParseOne(
            config, corpora[i], opt, spans != nullptr ? &local_spans : nullptr,
            ++request_id, &op);
        phase.ops.push_back(op);
        if (pass == 0) {
          ga->push_back(r.ga);
        } else {
          report->Check(r.ok && r.ga == (*ga)[i],
                        "parse_loghub2: " + corpora[i].name +
                            " grouping differs between passes");
        }
      }
      phase.cuts.push_back(NowNs());
    }
    phase.end_ns = phase.cuts.back();
  }
  if (spans != nullptr) spans->Append(local_spans);
  return phase;
}

}  // namespace

void RunParse(const Options& opt, SpanLog* spans, Report* report) {
  const size_t per_spec = opt.tiny ? 400 : 20000;
  const std::vector<bytebrain::DatasetSpec> specs = bytebrain::LogHub2Specs();
  bytebrain::ByteBrainAdapterConfig config = bytebrain::ByteBrainDefaultConfig();
  config.options.trainer.num_threads = config.num_threads;
  config.options.trainer.preprocess.num_threads = config.num_threads;

  std::vector<Corpus> corpora;
  const double setup_s = MedianSetup(opt.trace ? 1 : 5, [&](int) {
    const uint64_t t0 = NowNs();
    corpora.clear();
    for (const bytebrain::DatasetSpec& spec : specs) {
      corpora.push_back(MakeCorpus(spec, per_spec, false, opt.seed));
    }
    return static_cast<double>(NowNs() - t0) / 1e9;
  });

  std::vector<double> ga;
  const double window = opt.trace ? opt.seconds / 2 : opt.seconds;
  const Phase phase =
      ParsePhase(corpora, config, opt, window, nullptr, &ga, report);
  const Summary s = Summarize(phase, false);
  double mean_ga = 0;
  for (double g : ga) mean_ga += g / static_cast<double>(ga.size());
  report->Check(mean_ga >= 0.6, "parse_loghub2: mean grouping accuracy " +
                                    std::to_string(mean_ga) + " below 0.6");
  report->attempted += phase.ops.size();
  report->failed += phase.Failed();

  report->Info("specs", static_cast<double>(specs.size()), "corpora");
  report->Info("records_per_spec", static_cast<double>(per_spec), "logs");
  report->Info("passes", static_cast<double>(phase.cuts.size()), "passes");
  report->Info("parse_logs_per_s", s.rate, "logs/s");
  report->Info("parse_ga", mean_ga, "fraction");
  report->Info("parse_dataset_p50_ms", s.p50_ms, "ms");
  report->Info("parse_dataset_p99_ms", s.p99_ms, "ms");
  report->Info("peak_rss_mb", s.peak_rss_mb, "MB");
  for (size_t i = 0; i < ga.size(); ++i) {
    report->Info("ga." + corpora[i].name, ga[i], "fraction");
  }
  if (!opt.trace) {
    ReportEndToEnd(s, phase.ops.size(), setup_s, mean_ga, report);
    return;
  }

  std::vector<double> traced_ga;
  const Phase traced =
      ParsePhase(corpora, config, opt, window, spans, &traced_ga, report);
  report->attempted += traced.ops.size();
  report->failed += traced.Failed();
  ReportTraceOverhead(s, Summarize(traced, false), report);
  report->layer["gen.lateness_ms"] = {0, "ms"};
  report->layer["gen.mixed_ingest_p99_ms"] = {0, "ms"};

  // The replayed stream: the corpora back to back, in ingest-sized
  // batches, up to the replay cap.
  const size_t cap = opt.tiny ? 2048 : 65536;
  std::vector<Batch> batches;
  size_t taken = 0;
  for (const Corpus& c : corpora) {
    for (size_t i = 0; i < c.texts.size() && taken < cap; ++i, ++taken) {
      if (batches.empty() || batches.back().texts.size() == kBatch) {
        batches.emplace_back();
      }
      batches.back().texts.push_back(c.texts[i]);
    }
  }
  const double e2e_batch_ms = static_cast<double>(kBatch) / s.rate * 1e3;
  ReplayLayers(opt, DurableTopicConfig(), batches, e2e_batch_ms,
               /*measure_queries=*/true, spans, report);
}

}  // namespace perfbench
