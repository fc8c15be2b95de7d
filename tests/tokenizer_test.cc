// Tests for the Listing-1 tokenizer: hand-rolled scanner semantics plus a
// differential check against the regex engine running the same pattern.
#include <gtest/gtest.h>

#include "core/tokenizer.h"
#include "core/variable_replacer.h"
#include "datagen/generator.h"
#include "regex/regex.h"
#include "util/rng.h"

namespace bytebrain {
namespace {

// Tokenizer driven by a delimiter regex: every match is a separator and
// empty tokens are dropped. The differential oracle for the scanner.
class RegexTokenizer {
 public:
  /// Compiles the delimiter pattern; rejects lookaround (NotSupported).
  static Result<RegexTokenizer> Create(std::string_view delimiter_pattern) {
    auto re = Regex::Compile(delimiter_pattern);
    if (!re.ok()) return re.status();
    return RegexTokenizer(std::move(re).value());
  }

  std::vector<std::string_view> Tokenize(std::string_view log) const {
    std::vector<std::string_view> out;
    size_t last = 0;
    for (const RegexMatch& m : regex_.FindAll(log)) {
      if (m.begin > last) out.push_back(log.substr(last, m.begin - last));
      last = m.end;
    }
    if (last < log.size()) out.push_back(log.substr(last));
    return out;
  }

 private:
  explicit RegexTokenizer(Regex regex) : regex_(std::move(regex)) {}
  Regex regex_;
};

std::vector<std::string> Tok(std::string_view s) {
  std::vector<std::string> out;
  for (auto v : TokenizeDefault(s)) out.emplace_back(v);
  return out;
}

TEST(TokenizerTest, SplitsOnWhitespace) {
  EXPECT_EQ(Tok("a b  c"), (std::vector<std::string>{"a", "b", "c"}));
}

TEST(TokenizerTest, SplitsOnEqualsAndComma) {
  EXPECT_EQ(Tok("lock=2337, flg=0x0"),
            (std::vector<std::string>{"lock", "2337", "flg", "0x0"}));
}

TEST(TokenizerTest, SplitsOnBracketsBracesParens) {
  EXPECT_EQ(Tok("f(x) [y] {z}"),
            (std::vector<std::string>{"f", "x", "y", "z"}));
}

TEST(TokenizerTest, UrlProtocolSeparator) {
  // "://" is one delimiter; the path slash is kept inside the token.
  EXPECT_EQ(Tok("http://host/path"),
            (std::vector<std::string>{"http", "host/path"}));
}

TEST(TokenizerTest, ColonIsDelimiter) {
  EXPECT_EQ(Tok("key:value"), (std::vector<std::string>{"key", "value"}));
}

TEST(TokenizerTest, PeriodBeforeSpaceSplitsButNumericPeriodSurvives) {
  EXPECT_EQ(Tok("done. next"), (std::vector<std::string>{"done", "next"}));
  EXPECT_EQ(Tok("pi is 3.14"), (std::vector<std::string>{"pi", "is", "3.14"}));
  EXPECT_EQ(Tok("10.0.4.18"), (std::vector<std::string>{"10.0.4.18"}));
}

TEST(TokenizerTest, TrailingPeriodAtEndOfLine) {
  EXPECT_EQ(Tok("finished."), (std::vector<std::string>{"finished"}));
}

TEST(TokenizerTest, QuotesAreDelimiters) {
  EXPECT_EQ(Tok("tag=\"View Lock\""),
            (std::vector<std::string>{"tag", "View", "Lock"}));
  EXPECT_EQ(Tok("it's"), (std::vector<std::string>{"it", "s"}));
}

TEST(TokenizerTest, EscapedQuotes) {
  EXPECT_EQ(Tok(R"(say \"hi\" now)"),
            (std::vector<std::string>{"say", "hi", "now"}));
}

TEST(TokenizerTest, AngleAndAtAndAmp) {
  EXPECT_EQ(Tok("a<b>c@d&e?f"),
            (std::vector<std::string>{"a", "b", "c", "d", "e", "f"}));
}

TEST(TokenizerTest, EmptyAndAllDelims) {
  EXPECT_TRUE(Tok("").empty());
  EXPECT_TRUE(Tok("  ,;=  ").empty());
}

TEST(TokenizerTest, PreservesDashesSlashesUnderscores) {
  EXPECT_EQ(Tok("blk_-123 /var/log a-b"),
            (std::vector<std::string>{"blk_-123", "/var/log", "a-b"}));
}

TEST(TokenizerTest, PaperFigure1Example) {
  auto toks = Tok("release:lock=2337, flg=0x0, tag=\"View Lock\", "
                  "name=systemui, ws=null");
  EXPECT_EQ(toks,
            (std::vector<std::string>{"release", "lock", "2337", "flg", "0x0",
                                      "tag", "View", "Lock", "name",
                                      "systemui", "ws", "null"}));
}

TEST(TokenizerTest, IntoVariantMatchesAndAppendsAfterClear) {
  std::vector<std::string_view> buf;
  TokenizeDefaultInto("a b", &buf);
  ASSERT_EQ(buf.size(), 2u);
  buf.clear();
  TokenizeDefaultInto("c", &buf);
  ASSERT_EQ(buf.size(), 1u);
  EXPECT_EQ(buf[0], "c");
}

TEST(RegexTokenizerTest, CustomDelimiterRule) {
  auto tok = RegexTokenizer::Create("[|]+");
  ASSERT_TRUE(tok.ok());
  auto parts = tok->Tokenize("a|b||c");
  ASSERT_EQ(parts.size(), 3u);
  EXPECT_EQ(parts[0], "a");
  EXPECT_EQ(parts[2], "c");
}

TEST(RegexTokenizerTest, RejectsLookaround) {
  EXPECT_TRUE(
      RegexTokenizer::Create("(?=x)").status().IsNotSupported());
}

TEST(RegexTokenizerTest, DifferentialAgainstScanner) {
  // The default scanner must agree with the engine running the paper's
  // Listing-1 pattern on generated corpora.
  auto tok = RegexTokenizer::Create(kDefaultTokenizerPattern);
  ASSERT_TRUE(tok.ok()) << tok.status().ToString();
  DatasetGenerator gen(*FindDatasetSpec("Linux"));
  GenOptions opts;
  opts.num_logs = 200;
  opts.num_templates = 30;
  Dataset ds = gen.Generate(opts);
  for (const auto& log : ds.logs) {
    auto fast = TokenizeDefault(log.text);
    auto slow = tok->Tokenize(log.text);
    ASSERT_EQ(fast.size(), slow.size()) << log.text;
    for (size_t i = 0; i < fast.size(); ++i) {
      EXPECT_EQ(fast[i], slow[i]) << log.text;
    }
  }
}

TEST(RegexTokenizerTest, DifferentialOnHandWrittenEdgeCases) {
  auto tok = RegexTokenizer::Create(kDefaultTokenizerPattern);
  ASSERT_TRUE(tok.ok());
  const char* cases[] = {
      "a=b,c;d:e",
      "http://x.y/z?q=1&r=2",
      "end. New sentence. 3.14 stays",
      "quoted \"x y\" and 'z'",
      "nested (a [b {c} d] e)",
      "trailing.",
      "a\tb\nc\rd",
      "<tag> @user &amp",
  };
  for (const char* c : cases) {
    auto fast = TokenizeDefault(c);
    auto slow = tok->Tokenize(c);
    ASSERT_EQ(fast.size(), slow.size()) << c;
    for (size_t i = 0; i < fast.size(); ++i) EXPECT_EQ(fast[i], slow[i]) << c;
  }
}

// Preprocessing's fused scan must yield exactly the token texts of the
// two-pass path it replaces: ReplaceInto, then TokenizeDefaultInto.
void ExpectFusedTextsMatchTwoPass(const std::string& raw,
                                  std::string* mixed_buf) {
  const VariableReplacer replacer = VariableReplacer::Default();
  std::vector<std::string_view> fused;
  TokenizeReplacedInto(raw, mixed_buf, &fused);
  std::string replaced;
  replacer.ReplaceInto(raw, &replaced);
  std::vector<std::string_view> two_pass;
  TokenizeDefaultInto(replaced, &two_pass);
  // Compared after the call: every view must still be valid.
  ASSERT_EQ(fused.size(), two_pass.size()) << raw;
  for (size_t i = 0; i < fused.size(); ++i) {
    EXPECT_EQ(fused[i], two_pass[i]) << raw << " token " << i;
  }
}

TEST(FusedTokenizerTest, TextsMatchTwoPassOnEdgeCases) {
  ASSERT_TRUE(VariableReplacer::Default().fused_fast_path());
  const char* cases[] = {
      "",
      "10.0.0.1",
      // Mixed tokens: literal text around replaced variables, several
      // per line so the buffer holds more than one at once.
      "id=req10.0.0.1x peer=host-10.0.0.2:8080 at 2024-01-02T03:04:05",
      "mixed-1a2b3c4d5e6f7a8b9c0d1a2b3c4d5e6f token  double  space",
      "x0xdeadbeef 0xdeadbeef-tail pre_12:30:45_post",
      // "://" between a scheme and a replaced host.
      "GET http://10.1.2.3:80/index.html?user=7 HTTP/1.1",
      "ftp://host/a://b",
      // Escaped quotes around variables.
      "say \\\"10.0.0.1\\\" and \\'0xff\\' done",
      // Trailing and sentence-ending periods after variables.
      "connected to 10.0.0.1.",
      "finished at 12:30:45. Next run 3.14 stays.",
      "uuid 123e4567-e89b-12d3-a456-426614174000.",
  };
  std::string mixed_buf;
  for (const char* c : cases) ExpectFusedTextsMatchTwoPass(c, &mixed_buf);
}

TEST(FusedTokenizerTest, TextsMatchTwoPassOnLogHub2Corpora) {
  std::string mixed_buf;
  for (const DatasetSpec& spec : LogHub2Specs()) {
    GenOptions opts;
    opts.num_logs = 300;
    opts.num_templates = spec.loghub2_templates;
    opts.include_preamble = true;
    opts.seed_salt = 2;
    for (const auto& log : DatasetGenerator(spec).Generate(opts).logs) {
      ExpectFusedTextsMatchTwoPass(log.text, &mixed_buf);
    }
  }
}

}  // namespace
}  // namespace bytebrain
