#include "core/tokenizer.h"

#include <array>

#include "core/token_table.h"
#include "core/variable_replacer.h"
#include "util/hashing.h"

namespace bytebrain {

namespace {

// Delimiter-character lookup table for the Listing-1 class
// [\s\'\";=()\[\]{}?@&<>:\n\t\r,].
constexpr std::array<bool, 256> BuildDelimTable() {
  std::array<bool, 256> t{};
  for (char c : {' ', '\t', '\n', '\r', '\f', '\v', '\'', '"', ';', '=', '(',
                 ')', '[', ']', '{', '}', '?', '@', '&', '<', '>', ':', ','}) {
    t[static_cast<uint8_t>(c)] = true;
  }
  return t;
}

constexpr std::array<bool, 256> kIsDelim = BuildDelimTable();

constexpr bool IsSpaceChar(char c) {
  return c == ' ' || c == '\t' || c == '\n' || c == '\r' || c == '\f' ||
         c == '\v';
}

// Returns the length of the delimiter unit starting at `i`, or 0 if the
// character belongs to a token.
inline size_t DelimLenAt(std::string_view s, size_t i) {
  const char c = s[i];
  if (c == ':' && i + 2 < s.size() && s[i + 1] == '/' && s[i + 2] == '/') {
    return 3;  // URL protocol separator "://"
  }
  if (kIsDelim[static_cast<uint8_t>(c)]) return 1;
  if (c == '.') {
    // Sentence-ending period: consumed only before whitespace or EOL,
    // preserving periods inside numbers and identifiers.
    if (i + 1 == s.size() || IsSpaceChar(s[i + 1])) return 1;
    return 0;
  }
  if (c == '\\' && i + 1 < s.size() &&
      (s[i + 1] == '"' || s[i + 1] == '\'')) {
    return 2;  // escaped quote
  }
  return 0;
}

}  // namespace

void TokenizeDefaultInto(std::string_view log,
                         std::vector<std::string_view>* out) {
  const size_t n = log.size();
  size_t i = 0;
  size_t token_start = 0;
  bool in_token = false;
  while (i < n) {
    const size_t dl = DelimLenAt(log, i);
    if (dl > 0) {
      if (in_token) {
        out->push_back(log.substr(token_start, i - token_start));
        in_token = false;
      }
      i += dl;
    } else {
      if (!in_token) {
        token_start = i;
        in_token = true;
      }
      ++i;
    }
  }
  if (in_token) out->push_back(log.substr(token_start));
}

std::vector<std::string_view> TokenizeDefault(std::string_view log) {
  std::vector<std::string_view> out;
  TokenizeDefaultInto(log, &out);
  return out;
}

namespace {

constexpr std::array<bool, 256> BuildWordTable() {
  std::array<bool, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  for (int c = 'a'; c <= 'z'; ++c) t[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  t[static_cast<uint8_t>('_')] = true;
  return t;
}
constexpr std::array<bool, 256> kIsWord = BuildWordTable();

// Characters that can begin a builtin variable (digits for timestamps /
// IPs / hex literals, A-Z for syslog month names, a-f for uuid/md5 hex);
// everything else makes MatchBuiltinVariable return 0 immediately.
constexpr std::array<bool, 256> BuildVarStartTable() {
  std::array<bool, 256> t{};
  for (int c = '0'; c <= '9'; ++c) t[c] = true;
  for (int c = 'A'; c <= 'Z'; ++c) t[c] = true;
  for (int c = 'a'; c <= 'f'; ++c) t[c] = true;
  return t;
}
constexpr std::array<bool, 256> kVarStart = BuildVarStartTable();

}  // namespace

// The fused replace+tokenize scan, parameterized over what consumes each
// finished token: the online matcher wants interned ids, the sharded
// ingest router wants a sequence hash, preprocessing wants the texts.
// One loop, three sinks — the token boundaries MUST stay bit-identical
// between them.
template <typename Sink>
void ScanReplacedTokens(std::string_view raw, std::string* mixed_buf,
                        Sink&& sink) {
  const size_t n = raw.size();
  size_t i = 0;
  size_t tok_begin = 0;
  bool in_token = false;
  // A "mixed" token contains at least one replaced variable; its text
  // lives in (*mixed_buf)[mixed_begin, end) instead of being a pure slice
  // of `raw`. Mixed texts are appended, never overwritten, and together
  // are no longer than `raw` (each variable shrinks to one '*'), so with
  // the capacity reserved here no append reallocates and every text
  // handed to the sink stays valid until the buffer is next reused.
  bool mixed = false;
  size_t mixed_begin = 0;
  mixed_buf->clear();
  mixed_buf->reserve(n);
  // Builtin variables can only start where the replacer's scan would see
  // a left word boundary: at offset 0 or right after a non-word char.
  bool at_boundary = true;

  const auto finish = [&](size_t end) {
    if (!in_token) return;
    const std::string_view text =
        mixed ? std::string_view(*mixed_buf).substr(mixed_begin)
              : raw.substr(tok_begin, end - tok_begin);
    sink(text);
    in_token = false;
    mixed = false;
  };

  while (i < n) {
    const char c = raw[i];
    // Variable replacement runs before tokenization, so a recognized
    // variable wins over any delimiter reading of its characters.
    if (at_boundary && kVarStart[static_cast<uint8_t>(c)]) {
      const size_t len = MatchBuiltinVariable(raw, i);
      if (len > 0) {
        if (!in_token) {
          in_token = true;
          mixed = true;
          mixed_begin = mixed_buf->size();
        } else if (!mixed) {
          mixed = true;
          mixed_begin = mixed_buf->size();
          mixed_buf->append(raw.substr(tok_begin, i - tok_begin));
        }
        mixed_buf->push_back('*');
        i += len;
        // Every builtin variable ends with a word char.
        at_boundary = false;
        continue;
      }
    }
    if (kIsWord[static_cast<uint8_t>(c)]) {
      // Word run: no delimiters and (past the first char) no variable
      // starts can occur inside it — scan it with a tight loop.
      const size_t run_begin = i;
      do {
        ++i;
      } while (i < n && kIsWord[static_cast<uint8_t>(raw[i])]);
      if (!in_token) {
        in_token = true;
        tok_begin = run_begin;
      }
      if (mixed) mixed_buf->append(raw.substr(run_begin, i - run_begin));
      at_boundary = false;
      continue;
    }
    const size_t dl = DelimLenAt(raw, i);
    if (dl > 0) {
      finish(i);
      i += dl;
    } else {
      // Non-word, non-delimiter token char ('-', '.', '*', '/', ...).
      if (!in_token) {
        in_token = true;
        tok_begin = i;
      }
      if (mixed) mixed_buf->push_back(c);
      ++i;
    }
    at_boundary = true;
  }
  finish(n);
}

uint64_t TokenizeReplacedIdsInto(std::string_view raw,
                                 const TokenTable& table,
                                 std::string* mixed_buf,
                                 std::vector<uint32_t>* ids) {
  uint64_t shape = kTokenSeqFastSeed;
  ScanReplacedTokens(raw, mixed_buf, [&](std::string_view text) {
    const uint64_t hash = TokenTable::HashOf(text);
    // A lone replaced variable is the most common token shape; its id is
    // pinned to kWildcardId, no table probe needed.
    if (text.size() == 1 && text[0] == '*') {
      ids->push_back(TokenTable::kWildcardId);
    } else {
      ids->push_back(table.LookupHashed(hash, text));
    }
    shape = CombineTokenHashFast(shape, hash);
  });
  return shape;
}

void TokenizeReplacedInto(std::string_view raw, std::string* mixed_buf,
                          std::vector<std::string_view>* out) {
  ScanReplacedTokens(raw, mixed_buf,
                     [out](std::string_view text) { out->push_back(text); });
}

}  // namespace bytebrain
