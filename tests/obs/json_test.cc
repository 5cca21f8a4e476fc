// The flat journal reader and the full-document validator share one
// grammar: strict JSON numbers (no leading zeros, '+', inf or nan), the
// full escape set, and round-trips of everything the journal writes.
#include "obs/json.h"

#include <gtest/gtest.h>

#include <limits>
#include <string>

#include "obs/journal.h"

namespace snapq::obs {
namespace {

TEST(JsonTest, RejectsNumbersOutsideTheJsonGrammar) {
  for (const char* text : {R"({"a":01})", R"({"a":+1})", R"({"a":inf})",
                           R"({"a":nan})", R"({"a":.5})", R"({"a":1.})",
                           R"({"a":1e})", R"({"a":0x10})", R"({"a":-})"}) {
    EXPECT_FALSE(ParseFlatJsonObject(text).has_value()) << text;
    EXPECT_FALSE(ValidateJson(text)) << text;
  }
}

TEST(JsonTest, AcceptsNumbersInsideTheJsonGrammar) {
  const auto object = ParseFlatJsonObject(
      R"({"zero":0,"neg":-0.25,"exp":1e+20,"big":2E-3,"int":-17})");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("zero").number, 0.0);
  EXPECT_EQ(object->at("neg").number, -0.25);
  EXPECT_EQ(object->at("exp").number, 1e20);
  EXPECT_EQ(object->at("big").number, 2e-3);
  EXPECT_EQ(object->at("int").AsInt(), -17);
}

TEST(JsonTest, DecodesEveryEscape) {
  const auto object =
      ParseFlatJsonObject(R"({"s":"q\"b\\s\/\b\f\n\r\tA"})");
  ASSERT_TRUE(object.has_value());
  EXPECT_EQ(object->at("s").kind, JsonValue::Kind::kString);
  EXPECT_EQ(object->at("s").string, "q\"b\\s/\b\f\n\r\tA");
}

TEST(JsonTest, RejectsBadStrings) {
  for (const char* text :
       {R"({"s":"\x"})", R"({"s":"\u12g4"})", R"({"s":"open})",
        "{\"s\":\"raw\nnewline\"}"}) {
    EXPECT_FALSE(ParseFlatJsonObject(text).has_value()) << text;
    EXPECT_FALSE(ValidateJson(text)) << text;
  }
}

TEST(JsonTest, FlatParserRejectsContainersTheValidatorAccepts) {
  for (const char* text : {R"({"a":[1,2]})", R"({"a":{"b":1}})", "[1]"}) {
    EXPECT_FALSE(ParseFlatJsonObject(text).has_value()) << text;
    EXPECT_TRUE(ValidateJson(text)) << text;
  }
}

TEST(JsonTest, ValidatorBoundsNesting) {
  EXPECT_TRUE(ValidateJson(std::string(65, '[') + std::string(65, ']')));
  EXPECT_FALSE(ValidateJson(std::string(66, '[') + std::string(66, ']')));
}

TEST(JsonTest, JournalLinesRoundTrip) {
  JournalEvent event("round.trip", 42);
  event.Node(7)
      .Int("neg", -3)
      .Num("frac", 0.1)
      .Num("tiny", 1.5e-9)
      .Num("huge", 3.25e18)
      .Num("inf", std::numeric_limits<double>::infinity())
      .Str("text", "tab\there \"quoted\" back\\slash \x01 ctl")
      .Bool("yes", true)
      .Bool("no", false);
  const std::string line = event.ToJsonLine();
  ASSERT_TRUE(ValidateJson(line)) << line;
  const auto parsed = JournalEvent::Parse(line);
  ASSERT_TRUE(parsed.has_value()) << line;
  EXPECT_EQ(parsed->name(), "round.trip");
  EXPECT_EQ(parsed->time(), 42);
  EXPECT_EQ(parsed->GetInt("node"), 7);
  EXPECT_EQ(parsed->GetInt("neg"), -3);
  EXPECT_EQ(parsed->GetNum("frac"), 0.1);
  EXPECT_EQ(parsed->GetNum("tiny"), 1.5e-9);
  EXPECT_EQ(parsed->GetNum("huge"), 3.25e18);
  EXPECT_FALSE(parsed->GetNum("inf").has_value());  // written as null
  EXPECT_EQ(parsed->GetStr("text"),
            "tab\there \"quoted\" back\\slash \x01 ctl");
  EXPECT_EQ(parsed->GetBool("yes"), true);
  EXPECT_EQ(parsed->GetBool("no"), false);
}

}  // namespace
}  // namespace snapq::obs
