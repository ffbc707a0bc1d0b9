// Golden-trace conformance: replays the corpus scenarios and diffs their
// trace dumps byte-for-byte against the compressed references under
// tests/golden/.  Any engine change that perturbs event schedules fails
// here loudly; if the perturbation is *intended*, regenerate with
// tools/regen_golden.py and review the diff like any other code change.

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "codec/lzss.hpp"
#include "golden_scenarios.hpp"

namespace {

using namespace bcs;

std::string goldenPath(const std::string& name) {
  return std::string(BCS_GOLDEN_DIR) + "/" + name + ".trace.bcsz";
}

std::string loadGolden(const std::string& name) {
  std::ifstream in(goldenPath(name), std::ios::binary);
  if (!in) {
    ADD_FAILURE() << "missing golden file " << goldenPath(name)
                  << " — run tools/regen_golden.py";
    return {};
  }
  std::vector<std::uint8_t> blob{std::istreambuf_iterator<char>(in),
                                 std::istreambuf_iterator<char>()};
  return codec::decompress(blob);
}

/// Pinpoints the first differing line so a schedule perturbation reads as
/// "event X moved", not as a 2 MB string mismatch.
void expectTraceEq(const std::string& expected, const std::string& actual,
                   const std::string& name) {
  if (expected == actual) {
    SUCCEED();
    return;
  }
  std::istringstream e(expected), a(actual);
  std::string el, al;
  std::size_t line = 1;
  while (true) {
    const bool eg = static_cast<bool>(std::getline(e, el));
    const bool ag = static_cast<bool>(std::getline(a, al));
    if (!eg && !ag) break;
    if (!eg || !ag || el != al) {
      FAIL() << name << ": trace diverges from golden at line " << line
             << "\n  golden: " << (eg ? el : std::string("<end of trace>"))
             << "\n  actual: " << (ag ? al : std::string("<end of trace>"))
             << "\nIf this change is intended, regenerate with "
                "tools/regen_golden.py and review the diff.";
    }
    ++line;
  }
  FAIL() << name << ": traces differ but line scan found no divergence";
}

TEST(GoldenCodec, RoundTripsArbitraryData) {
  std::string data;
  for (int i = 0; i < 10000; ++i) {
    data += "line " + std::to_string(i % 97) + ": the quick brown fox ";
    data += static_cast<char>(i * 131 % 256);
  }
  const auto blob = codec::compress(data);
  EXPECT_LT(blob.size(), data.size() / 4);  // repetitive text compresses
  EXPECT_EQ(codec::decompress(blob), data);

  EXPECT_EQ(codec::decompress(codec::compress(std::string{})), "");
  const std::string one = "x";
  EXPECT_EQ(codec::decompress(codec::compress(one)), one);
}

TEST(GoldenCodec, RejectsCorruptStreams) {
  EXPECT_THROW(codec::decompress({}), std::runtime_error);
  auto blob = codec::compress(std::string(1000, 'a'));
  blob[0] ^= 0xFF;  // bad magic
  EXPECT_THROW(codec::decompress(blob), std::runtime_error);
}

class GoldenTrace : public ::testing::TestWithParam<golden::Scenario> {};

TEST_P(GoldenTrace, MatchesCorpus) {
  const golden::Scenario& sc = GetParam();
  const std::string expected = loadGolden(sc.name);
  ASSERT_FALSE(expected.empty());
  const std::string actual = sc.generate();
  expectTraceEq(expected, actual, sc.name);
}

INSTANTIATE_TEST_SUITE_P(Corpus, GoldenTrace,
                         ::testing::ValuesIn(golden::kScenarios),
                         [](const auto& info) {
                           return std::string(info.param.name);
                         });

}  // namespace
