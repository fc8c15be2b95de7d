// Tokenization (paper §4.1.1).
//
// The default tokenizer implements the paper's Listing-1 regular
// expression as a hand-rolled scanner:
//
//   (?:://)|(?:(?:[\s\'\";=()\[\]{}?@&<>:\n\t\r,])|(?:[\.](\s+|$))|(?:\\[\"\']))+
//
// i.e. it splits on (a) the URL protocol separator "://", (b) common
// delimiter characters, (c) sentence-ending periods (a '.' followed by
// whitespace or end-of-line, so periods inside numbers survive), and
// (d) escaped quotes. Empty tokens are dropped.
//
// The scanner is differential-tested against the regex engine running
// kDefaultTokenizerPattern.
#pragma once

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>


namespace bytebrain {

/// The paper's Listing-1 pattern, usable with the regex engine.
inline constexpr std::string_view kDefaultTokenizerPattern =
    "(?:://)|(?:(?:[\\s'\";=()\\[\\]{}?@&<>:\\n\\t\\r,])|"
    "(?:\\.(\\s+|$))|(?:\\\\[\"']))+";

/// Splits `log` with the default delimiter rules. Returned views alias
/// `log` and are invalidated when it is freed. Empty tokens are dropped.
std::vector<std::string_view> TokenizeDefault(std::string_view log);

/// Appends tokens to `*out` instead of allocating a fresh vector; the hot
/// path for preprocessing (clear + reuse the buffer between logs).
void TokenizeDefaultInto(std::string_view log,
                         std::vector<std::string_view>* out);

class TokenTable;

/// Fused online-matching fast path: equivalent to
/// VariableReplacer::ReplaceInto (builtin fast path) followed by
/// TokenizeDefaultInto and one TokenTable lookup per token, but performed
/// in a single pass over `raw` — no replaced-text copy is materialized
/// and each token is hashed and looked up once, at its end. Appends
/// one interned id (TokenTable::kUnknownId for never-seen tokens) per
/// token to `*ids`, and returns the content hash of the token sequence
/// (kTokenSeqFastSeed folded with CombineTokenHashFast over each
/// token's TokenTable::HashOf). `mixed_buf` is caller-owned scratch for
/// the tokens that contain a replaced variable.
/// Only valid when the replacer reports fused_fast_path().
uint64_t TokenizeReplacedIdsInto(std::string_view raw,
                                 const TokenTable& table,
                                 std::string* mixed_buf,
                                 std::vector<uint32_t>* ids);

/// Same fused scan, materializing the token texts: appends to `*out`
/// exactly the tokens TokenizeDefaultInto would find in
/// VariableReplacer::ReplaceInto's output, without building that output.
/// Views alias `raw` or, for tokens containing a replaced variable,
/// `*mixed_buf`; they stay valid until `mixed_buf` is reused or freed.
/// This is preprocessing's path. Same precondition as
/// TokenizeReplacedIdsInto: the replacer must report fused_fast_path().
void TokenizeReplacedInto(std::string_view raw, std::string* mixed_buf,
                          std::vector<std::string_view>* out);

}  // namespace bytebrain
