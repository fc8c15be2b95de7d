// ByteBrainParser — the library's main entry point.
//
// Wraps the full two-phase pipeline of the paper: offline training
// (preprocess -> initial grouping -> hierarchical clustering) and online
// matching against template texts, plus incremental retraining with model
// merge, adoption of unmatched logs as temporary templates, and
// query-time precision adjustment via the saturation threshold.
//
// Typical use:
//   ByteBrainParser parser(ByteBrainOptions{});
//   parser.Train(training_logs);
//   TemplateId leaf = parser.Match("Accepted password for root ...");
//   TemplateId coarse = parser.ResolveAtThreshold(leaf, 0.5).value();
//   std::string text = parser.TemplateText(coarse);
#pragma once

#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "core/matcher.h"
#include "core/model.h"
#include "core/trainer.h"
#include "core/variable_replacer.h"
#include "util/status.h"

namespace bytebrain {

/// Full configuration for a parser instance.
struct ByteBrainOptions {
  TrainerOptions trainer;
  /// Template-similarity threshold for retrain merges (§3).
  double merge_similarity = 0.75;
  /// Use clustering assignments for training logs instead of text
  /// matching ("w/ naive match" Fig. 8 variant).
  bool naive_match = false;
  /// Disable the hand-rolled preprocessing fast paths (the paper's
  /// "w/o JIT" analogue: same algorithm, scalar reference implementation).
  bool unoptimized = false;
};

/// The fully-built successor state of a retraining cycle: an immutable
/// model plus the matcher constructed over it, produced off-lock by
/// PrepareRetrain and published in O(1) by CommitRetrain. Between those
/// two calls nothing reads it, so no synchronization is needed on it.
struct PreparedRetrain {
  TemplateModel model;
  std::unique_ptr<TemplateMatcher> matcher;
};

/// Facade over trainer + model + matcher. Train/Retrain/CommitRetrain
/// are exclusive with each other and with Match*/MatchOrAdopt; Match*
/// are safe to call concurrently between them. PrepareRetrain is const
/// and may run concurrently with everything except AddVariableRule —
/// that is the hook that lets the service train in the background.
class ByteBrainParser {
 public:
  explicit ByteBrainParser(ByteBrainOptions options);

  /// Adds a tenant-defined variable-replacement rule (before Train).
  Status AddVariableRule(std::string name, std::string_view pattern);

  /// Trains from scratch, replacing any existing model.
  Status Train(const std::vector<std::string>& logs);

  /// Trains on a new batch and merges into the existing model; temporary
  /// templates adopted online are dropped and re-learned (§3).
  Status Retrain(const std::vector<std::string>& logs);

  /// Snapshot half of the async retraining protocol: a deep copy of the
  /// current model with its own TokenTable (TemplateModel::Clone), safe
  /// to hand to a background thread. Call with the same exclusion as
  /// Match (no concurrent Train/Retrain/adoption); cost is O(model),
  /// which is orders of magnitude below a training run.
  TemplateModel SnapshotModel() const { return model_.Clone(); }

  /// Rebuild half: trains a fresh model on `logs` and merges it into
  /// `base` (a SnapshotModel clone; temporaries dropped first, exactly
  /// like Retrain), then builds the matcher over the result. Touches no
  /// live parser state — const, and safe to run concurrently with
  /// Match*/MatchOrAdopt/Train on other threads. The embedded replacer
  /// pointer means the parser must outlive the prepared state. The view
  /// overload is what the service's off-lock training uses: views into
  /// mmap'd sealed storage segments, valid for the call only.
  Result<PreparedRetrain> PrepareRetrain(
      TemplateModel base, const std::vector<std::string>& logs) const;
  Result<PreparedRetrain> PrepareRetrain(
      TemplateModel base, const std::vector<std::string_view>& logs) const;

  /// Publish half: swaps the prepared model/matcher in. O(1) pointer
  /// swaps — this is the only step the service's exclusive lock must
  /// cover, which is what keeps ingest latency independent of training
  /// cost. Requires the same exclusion as Train/Retrain.
  void CommitRetrain(PreparedRetrain prepared);

  /// Most precise matching template, or kInvalidTemplateId.
  TemplateId Match(std::string_view log) const;

  /// The live matcher (null before the first training), for callers
  /// that split a match into TemplateMatcher::Tokenize + MatchIds.
  /// Valid, and safe to match with, under the same exclusion as Match.
  const TemplateMatcher* matcher() const { return matcher_.get(); }

  /// Matches a batch across N queues (paper's online parallelism). The
  /// view overload serves callers whose logs live in borrowed buffers
  /// (mmap'd training windows, wire-request payloads).
  std::vector<TemplateId> MatchAll(const std::vector<std::string>& logs,
                                   int num_threads) const;
  std::vector<TemplateId> MatchAll(const std::vector<std::string_view>& logs,
                                   int num_threads) const;

  /// Like Match, but a miss inserts the log itself as a temporary
  /// template and returns its new id (§3 "Online Matching"). When
  /// `adopted` is non-null it is set to true iff this call created a new
  /// temporary template — callers needing that signal must not re-Match
  /// (the old probe-then-adopt dance matched every log up to three
  /// times).
  TemplateId MatchOrAdopt(std::string_view log, bool* adopted = nullptr);

  /// Folds a shard-local pending model (temporary roots adopted during a
  /// sharded ingest batch) into the live model, starting at 0-based
  /// pending-node index `first`: each pending node is adopted as a
  /// temporary of THIS model (tokens re-interned from the pending
  /// model's private table) and inserted into the live matcher
  /// incrementally (token strings move out of `pending`, see
  /// TemplateModel::MergeTemporariesFrom). Returns the new ids in
  /// pending-node order. Requires
  /// the same exclusion as MatchOrAdopt's adopt path (the service calls
  /// it only from the exclusive batch section). Callers are responsible
  /// for only folding pendings whose miss verdict is still current —
  /// i.e. the model is unchanged since the shard matched them; stale
  /// pendings must go through MatchOrAdopt instead.
  std::vector<TemplateId> FoldTemporaries(TemplateModel* pending, size_t first,
                                          size_t count = SIZE_MAX);

  /// Query-time precision adjustment (§3 "Query").
  Result<TemplateId> ResolveAtThreshold(TemplateId id,
                                        double threshold) const;

  std::string TemplateText(TemplateId id) const;
  std::string MergedWildcardText(TemplateId id) const;

  const TemplateModel& model() const { return model_; }
  /// The replacer matching/training run on; immutable after setup (rules
  /// are added at topic creation), so shard-local matchers may share it.
  const VariableReplacer& replacer() const { return replacer_; }
  const std::vector<TemplateId>& training_assignments() const {
    return training_assignments_;
  }
  const ByteBrainOptions& options() const { return options_; }
  const TrainOutput& last_train_output() const { return last_output_; }

  /// Serialized model bytes (Table 5's "Model Size").
  uint64_t ModelBytes() const { return model_.ApproxBytes(); }

 private:
  void RebuildMatcher();

  ByteBrainOptions options_;
  VariableReplacer replacer_;
  TemplateModel model_;
  std::unique_ptr<TemplateMatcher> matcher_;
  std::vector<TemplateId> training_assignments_;
  TrainOutput last_output_;
  std::mutex adopt_mu_;
};

}  // namespace bytebrain
