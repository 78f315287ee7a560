// Renderer edge cases for the diagnostic engine: JSON escaping of
// hostile paths and messages, sort stability, and a round-trip parse of
// the exact JSON `epp_check src` emits for the defect corpus — CI consumes
// that artifact, so "looks like JSON" is not enough.

#include <gtest/gtest.h>

#include <cctype>
#include <map>
#include <string>
#include <vector>

#include "lint/diagnostic.hpp"
#include "lint/src/srclint.hpp"

namespace epp {
namespace {

using lint::Diagnostic;
using lint::Diagnostics;
using lint::Severity;

// --- a deliberately small JSON reader --------------------------------------
// Parses exactly the shape render_json promises: an array of flat
// objects with string/number values. Any deviation is a test failure,
// which is the point.

struct JsonParser {
  const std::string& text;
  std::size_t pos = 0;
  bool failed = false;

  void skip_space() {
    while (pos < text.size() &&
           std::isspace(static_cast<unsigned char>(text[pos])))
      ++pos;
  }

  bool expect(char c) {
    skip_space();
    if (pos < text.size() && text[pos] == c) {
      ++pos;
      return true;
    }
    failed = true;
    return false;
  }

  std::string parse_string() {
    skip_space();
    std::string out;
    if (pos >= text.size() || text[pos] != '"') {
      failed = true;
      return out;
    }
    ++pos;
    while (pos < text.size() && text[pos] != '"') {
      char c = text[pos];
      if (c == '\\') {
        ++pos;
        if (pos >= text.size()) break;
        switch (text[pos]) {
          case '"': out.push_back('"'); break;
          case '\\': out.push_back('\\'); break;
          case 'n': out.push_back('\n'); break;
          case 't': out.push_back('\t'); break;
          case 'u': pos += 4; out.push_back('?'); break;
          default: failed = true; return out;
        }
      } else if (static_cast<unsigned char>(c) < 0x20) {
        failed = true;  // raw control character: invalid JSON
        return out;
      } else {
        out.push_back(c);
      }
      ++pos;
    }
    if (pos < text.size() && text[pos] == '"')
      ++pos;  // closing quote
    else
      failed = true;
    return out;
  }

  std::string parse_number() {
    skip_space();
    std::string out;
    while (pos < text.size() &&
           (std::isdigit(static_cast<unsigned char>(text[pos])) ||
            text[pos] == '-'))
      out.push_back(text[pos++]);
    if (out.empty()) failed = true;
    return out;
  }

  std::map<std::string, std::string> parse_object() {
    std::map<std::string, std::string> object;
    if (!expect('{')) return object;
    skip_space();
    if (pos < text.size() && text[pos] == '}') {
      ++pos;
      return object;
    }
    while (!failed) {
      const std::string key = parse_string();
      if (!expect(':')) break;
      skip_space();
      object[key] = (pos < text.size() && text[pos] == '"')
                        ? parse_string()
                        : parse_number();
      skip_space();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      expect('}');
      break;
    }
    return object;
  }

  std::vector<std::map<std::string, std::string>> parse_array() {
    std::vector<std::map<std::string, std::string>> objects;
    if (!expect('[')) return objects;
    skip_space();
    if (pos < text.size() && text[pos] == ']') {
      ++pos;
      return objects;
    }
    while (!failed) {
      objects.push_back(parse_object());
      skip_space();
      if (pos < text.size() && text[pos] == ',') {
        ++pos;
        continue;
      }
      expect(']');
      break;
    }
    return objects;
  }
};

// --- escaping --------------------------------------------------------------

TEST(LintRender, JsonEscapesQuotesAndBackslashesInPaths) {
  Diagnostics diagnostics;
  diagnostics.error("EPP-TEST-001",
                    {R"(C:\src\"quoted dir"\file.cpp)", 7},
                    "field \"x\" tabbed\there\nand on a new line",
                    R"(replace \ with /)");
  const std::string json = lint::render_json(diagnostics);

  JsonParser parser{json};
  const auto objects = parser.parse_array();
  ASSERT_FALSE(parser.failed) << json;
  ASSERT_EQ(objects.size(), 1u);
  EXPECT_EQ(objects[0].at("file"), R"(C:\src\"quoted dir"\file.cpp)");
  EXPECT_EQ(objects[0].at("message"),
            "field \"x\" tabbed\there\nand on a new line");
  EXPECT_EQ(objects[0].at("hint"), R"(replace \ with /)");
  EXPECT_EQ(objects[0].at("line"), "7");
}

TEST(LintRender, JsonEscapesControlCharactersAsUnicode) {
  Diagnostics diagnostics;
  diagnostics.warning("EPP-TEST-002", {"f.cpp", 1},
                      std::string("bell\achar"));  // \a = 0x07
  const std::string json = lint::render_json(diagnostics);
  EXPECT_NE(json.find("\\u0007"), std::string::npos) << json;
  EXPECT_EQ(json.find('\a'), std::string::npos) << json;
}

// --- sort stability --------------------------------------------------------

TEST(LintRender, SortOrdersByFileLineRuleAndKeepsTieOrder) {
  Diagnostics diagnostics;
  diagnostics.note("EPP-B-002", {"b.cpp", 5}, "fourth");
  diagnostics.note("EPP-A-002", {"a.cpp", 9}, "third");
  diagnostics.note("EPP-A-001", {"a.cpp", 2}, "first");
  diagnostics.note("EPP-A-009", {"a.cpp", 2}, "second");
  // Two findings from different rule passes on the same (file, line,
  // rule): emission order must survive the sort.
  diagnostics.note("EPP-B-001", {"b.cpp", 1}, "tie-early");
  diagnostics.note("EPP-B-001", {"b.cpp", 1}, "tie-late");
  diagnostics.sort_by_location();

  std::vector<std::string> messages;
  for (const Diagnostic& diagnostic : diagnostics.all())
    messages.push_back(diagnostic.message);
  const std::vector<std::string> expected = {
      "first", "second", "third", "tie-early", "tie-late", "fourth"};
  EXPECT_EQ(messages, expected);
}

// --- round trip over the real corpus ---------------------------------------

TEST(LintRender, SrclintJsonRoundTripsOverTheDefectCorpus) {
  Diagnostics diagnostics;
  lint::lint_sources({std::string(EPP_LINT_CORPUS_DIR) + "/src"},
                     diagnostics);
  ASSERT_FALSE(diagnostics.empty());

  const std::string json = lint::render_json(diagnostics);
  JsonParser parser{json};
  const auto objects = parser.parse_array();
  ASSERT_FALSE(parser.failed);
  ASSERT_EQ(objects.size(), diagnostics.size());

  for (std::size_t i = 0; i < objects.size(); ++i) {
    const Diagnostic& diagnostic = diagnostics.all()[i];
    EXPECT_EQ(objects[i].at("file"), diagnostic.location.file);
    EXPECT_EQ(objects[i].at("line"),
              std::to_string(diagnostic.location.line));
    EXPECT_EQ(objects[i].at("rule"), diagnostic.rule);
    EXPECT_EQ(objects[i].at("severity"),
              lint::severity_name(diagnostic.severity));
    EXPECT_EQ(objects[i].at("message"), diagnostic.message);
    EXPECT_EQ(objects[i].at("hint"), diagnostic.hint);
  }
}

}  // namespace
}  // namespace epp
