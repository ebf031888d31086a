// Parser robustness: random garbage, truncations, and mutations must
// produce a clean ParseError or nullopt — never a crash or a silently
// wrong rule — and valid inputs must round-trip bit-exactly.
#include <gtest/gtest.h>

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <string>

#include "net/ipv4.h"
#include "net/port_range.h"
#include "net/protocol.h"
#include "ruleset/generator.h"
#include "ruleset/parser.h"
#include "util/prng.h"

namespace rfipc::ruleset {
namespace {

std::string random_token(util::Xoshiro256& rng, std::size_t max_len) {
  static const char alphabet[] = "0123456789./:*-abcxyzTCPUDP@# \t";
  std::string s;
  const std::size_t len = rng.below(max_len + 1);
  for (std::size_t i = 0; i < len; ++i) {
    s.push_back(alphabet[rng.below(sizeof(alphabet) - 1)]);
  }
  return s;
}

TEST(ParserFuzz, RandomGarbageNeverCrashes) {
  util::Xoshiro256 rng(404);
  for (int iter = 0; iter < 2000; ++iter) {
    const auto line = random_token(rng, 60);
    // Field parsers: nullopt or a valid value, never a crash.
    (void)net::Ipv4Addr::parse(line);
    (void)net::Ipv4Prefix::parse(line);
    (void)net::PortRange::parse(line);
    (void)net::ProtocolSpec::parse(line);
    (void)Rule::parse(line);
    // File parsers: parsed ruleset or ParseError.
    try {
      (void)parse_auto(line + "\n");
    } catch (const ParseError&) {
    }
  }
}

TEST(ParserFuzz, MutatedValidLinesFailCleanly) {
  util::Xoshiro256 rng(405);
  const auto rules = generate_firewall(64, 2);
  for (const auto& r : rules) {
    std::string line = r.to_string();
    for (int mut = 0; mut < 20; ++mut) {
      std::string mutated = line;
      switch (rng.below(3)) {
        case 0:  // flip a character
          mutated[rng.below(mutated.size())] =
              static_cast<char>('!' + rng.below(90));
          break;
        case 1:  // truncate
          mutated.resize(rng.below(mutated.size()));
          break;
        default:  // duplicate a token separator
          mutated.insert(mutated.begin() + static_cast<std::ptrdiff_t>(
                                               rng.below(mutated.size())),
                         ' ');
          break;
      }
      const auto parsed = Rule::parse(mutated);
      if (parsed) {
        // If it still parses, it must re-serialize to something that
        // parses to the same rule (no silent corruption).
        const auto again = Rule::parse(parsed->to_string());
        ASSERT_TRUE(again);
        EXPECT_EQ(*again, *parsed);
      }
    }
  }
}

TEST(ParserFuzz, GeneratedRulesetsRoundTripBothFormats) {
  for (const std::uint64_t seed : {1ull, 2ull, 3ull, 4ull, 5ull}) {
    GeneratorConfig cfg;
    cfg.mode = static_cast<GeneratorMode>(seed % 3);
    cfg.size = 40;
    cfg.seed = seed;
    cfg.range_fraction = 0.4;
    const auto rules = generate(cfg);

    // Native round trip preserves everything including actions.
    const auto native = parse_native(rules.to_text());
    ASSERT_EQ(native.size(), rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) EXPECT_EQ(native[i], rules[i]);

    // ClassBench round trip preserves the match fields.
    const auto cb = parse_classbench(to_classbench(rules));
    ASSERT_EQ(cb.size(), rules.size());
    for (std::size_t i = 0; i < rules.size(); ++i) {
      EXPECT_EQ(cb[i].src_ip, rules[i].src_ip) << i;
      EXPECT_EQ(cb[i].dst_ip, rules[i].dst_ip) << i;
      EXPECT_EQ(cb[i].src_port, rules[i].src_port) << i;
      EXPECT_EQ(cb[i].dst_port, rules[i].dst_port) << i;
      EXPECT_EQ(cb[i].protocol, rules[i].protocol) << i;
    }
  }
}

// Error-path corpus: known-nasty inputs collected from fuzzing and the
// field. Every one must fail cleanly through the non-throwing API and
// must NOT disturb the caller's ruleset — a failed load leaves no
// partially-populated state behind.
TEST(ParserFuzz, ErrorCorpusLeavesRulesetUntouched) {
  static const char* kCorpus[] = {
      // Good prefix, bad tail: the parser must not keep the good rules.
      "* * * * * DROP\n* * * * * DROP\nthis is not a rule\n",
      // ClassBench marker but native body.
      "@* * * * * DROP\n",
      // ClassBench with missing fields / bad separators.
      "@1.2.3.0/24 5.6.7.0/24 0 : 65535\n",
      "@1.2.3.0/24 5.6.7.0/24 0 x 65535 0 : 65535 0x06/0xFF\n",
      // Out-of-range numbers.
      "@1.2.3.0/24 5.6.7.0/24 0 : 99999 0 : 65535 0x06/0xFF\n",
      "1.2.3.0/40 * * * * DROP\n",
      // Inverted port range.
      "* * 100:50 * * DROP\n",
      // Action garbage.
      "* * * * * LAUNCH\n",
      // Embedded NUL and control characters.
      "* * * * * DROP\n\x01\x02\x03\n",
  };
  const auto sentinel = generate_firewall(8, 9);
  for (const char* text : kCorpus) {
    RuleSet out = sentinel;  // pre-populated on purpose
    std::string err;
    EXPECT_FALSE(try_parse_auto(text, out, err)) << text;
    EXPECT_FALSE(err.empty()) << text;
    // Untouched: still exactly the sentinel.
    ASSERT_EQ(out.size(), sentinel.size()) << text;
    for (std::size_t i = 0; i < out.size(); ++i) EXPECT_EQ(out[i], sentinel[i]);
  }
}

TEST(ParserFuzz, TryLoadRulesetErrorPaths) {
  RuleSet out;
  std::string err;
  // Missing file: clean error, no state.
  EXPECT_FALSE(try_load_ruleset("/nonexistent/rfipc-rules.txt", out, err));
  EXPECT_NE(err.find("cannot open"), std::string::npos);
  EXPECT_TRUE(out.empty());

  // Valid file loads; a later failed load keeps the previous contents.
  const std::string path = ::testing::TempDir() + "/rfipc_parser_fuzz_rules.txt";
  {
    std::ofstream f(path);
    f << "* * * * * DROP\n1.2.3.0/24 * * * TCP PORT 3\n";
  }
  ASSERT_TRUE(try_load_ruleset(path, out, err)) << err;
  ASSERT_EQ(out.size(), 2u);
  {
    std::ofstream f(path);
    f << "* * * * * DROP\ngarbage line\n";
  }
  err.clear();
  EXPECT_FALSE(try_load_ruleset(path, out, err));
  EXPECT_NE(err.find("line 2"), std::string::npos) << err;
  EXPECT_EQ(out.size(), 2u);  // previous ruleset intact
  std::remove(path.c_str());
}

TEST(ParserFuzz, HugeLineAndManyLines) {
  // Oversized inputs must not crash.
  std::string huge(100000, 'x');
  EXPECT_THROW(parse_native(huge + "\n"), ParseError);
  std::string many;
  for (int i = 0; i < 5000; ++i) many += "* * * * * DROP\n";
  EXPECT_EQ(parse_native(many).size(), 5000u);
}

}  // namespace
}  // namespace rfipc::ruleset
