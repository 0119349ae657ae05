// Unit tests for the Turtle parser: directives, prefixed names, predicate
// and object lists, blank node property lists, literal shorthands, error
// paths, and equivalence with N-Triples for shared documents: both parsers
// lex terms with one lexer, so every line the writer emits or the N-Triples
// parser accepts reads back identically through Turtle.

#include <cstdio>
#include <fstream>
#include <iterator>

#include "gtest/gtest.h"
#include "rdf/ntriples.h"
#include "rdf/turtle.h"
#include "util/rng.h"

namespace minoan {
namespace rdf {
namespace {

std::vector<Triple> Parse(const std::string& doc) {
  TurtleParser parser;
  auto result = parser.ParseString(doc);
  EXPECT_TRUE(result.ok()) << result.status();
  return result.ok() ? std::move(result).value() : std::vector<Triple>{};
}

Status ParseErr(const std::string& doc) {
  TurtleParser parser;
  auto result = parser.ParseString(doc);
  return result.ok() ? Status::Ok() : result.status();
}

TEST(TurtleTest, PlainTriple) {
  const auto triples = Parse("<http://x/s> <http://x/p> <http://x/o> .");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://x/s");
  EXPECT_EQ(triples[0].object.lexical, "http://x/o");
}

TEST(TurtleTest, PrefixDirective) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:crete ex:capital ex:heraklion .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/crete");
  EXPECT_EQ(triples[0].predicate.lexical, "http://example.org/capital");
}

TEST(TurtleTest, SparqlStyleDirectives) {
  const auto triples = Parse(R"(
PREFIX ex: <http://example.org/>
ex:a ex:b ex:c .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/a");
}

TEST(TurtleTest, EmptyPrefix) {
  const auto triples = Parse(R"(
@prefix : <http://default.org/> .
:a :b :c .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://default.org/a");
}

TEST(TurtleTest, BaseResolution) {
  const auto triples = Parse(R"(
@base <http://base.org/data/> .
<rel> <#frag> </abs> .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://base.org/data/rel");
  EXPECT_EQ(triples[0].predicate.lexical, "http://base.org/data/#frag");
  EXPECT_EQ(triples[0].object.lexical, "http://base.org/abs");
}

TEST(TurtleTest, AKeywordIsRdfType) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:knossos a ex:Palace .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].predicate.lexical, std::string(kRdfType));
}

TEST(TurtleTest, PredicateList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p1 "a" ; ex:p2 "b" ; ex:p3 "c" .
)");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[0].predicate.lexical, "http://example.org/p1");
  EXPECT_EQ(triples[2].object.lexical, "c");
  for (const Triple& t : triples) {
    EXPECT_EQ(t.subject.lexical, "http://example.org/s");
  }
}

TEST(TurtleTest, TrailingSemicolonAllowed) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p "a" ; .
)");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleTest, ObjectList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p "a", "b", "c" .
)");
  ASSERT_EQ(triples.size(), 3u);
  EXPECT_EQ(triples[1].object.lexical, "b");
}

TEST(TurtleTest, LiteralForms) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
@prefix xsd: <http://www.w3.org/2001/XMLSchema#> .
ex:s ex:str "plain" ;
     ex:lang "bonjour"@fr ;
     ex:typed "5"^^xsd:byte ;
     ex:single 'apostrophes' .
)");
  ASSERT_EQ(triples.size(), 4u);
  EXPECT_EQ(triples[1].object.language, "fr");
  EXPECT_EQ(triples[2].object.datatype,
            "http://www.w3.org/2001/XMLSchema#byte");
  EXPECT_EQ(triples[3].object.lexical, "apostrophes");
}

TEST(TurtleTest, NumericAndBooleanShorthands) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:int 42 ; ex:neg -7 ; ex:dec 3.14 ; ex:exp 1.2e3 ; ex:flag true .
)");
  ASSERT_EQ(triples.size(), 5u);
  EXPECT_EQ(triples[0].object.lexical, "42");
  EXPECT_EQ(triples[0].object.datatype, std::string(kXsdInteger));
  EXPECT_EQ(triples[1].object.lexical, "-7");
  EXPECT_EQ(triples[2].object.datatype,
            "http://www.w3.org/2001/XMLSchema#decimal");
  EXPECT_EQ(triples[3].object.datatype,
            "http://www.w3.org/2001/XMLSchema#double");
  EXPECT_EQ(triples[4].object.lexical, "true");
}

TEST(TurtleTest, BlankNodeLabels) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
_:b1 ex:knows _:b2 .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0].subject.is_blank());
  EXPECT_EQ(triples[0].subject.lexical, "b1");
  EXPECT_EQ(triples[0].object.lexical, "b2");
}

TEST(TurtleTest, AnonymousBlankNodeObject) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:s ex:address [ ex:city "heraklion" ; ex:zip "71201" ] .
)");
  // 1 outer triple + 2 inner ones on the anonymous node.
  ASSERT_EQ(triples.size(), 3u);
  // Inner triples come first (emitted while parsing the property list).
  EXPECT_TRUE(triples[0].subject.is_blank());
  EXPECT_EQ(triples[2].predicate.lexical, "http://example.org/address");
  EXPECT_EQ(triples[2].object.lexical, triples[0].subject.lexical);
}

TEST(TurtleTest, BlankNodeSubjectPropertyList) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
[ ex:p "v" ] .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_TRUE(triples[0].subject.is_blank());
}

TEST(TurtleTest, CommentsIgnored) {
  const auto triples = Parse(R"(
# leading comment
@prefix ex: <http://example.org/> . # trailing
ex:s ex:p "v" . # done
)");
  EXPECT_EQ(triples.size(), 1u);
}

TEST(TurtleTest, DotInsidePrefixedLocalName) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:version1.2 ex:p "v" .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/version1.2");
}

TEST(TurtleTest, EscapedLocalName) {
  const auto triples = Parse(R"(
@prefix ex: <http://example.org/> .
ex:a\~b ex:p "v" .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://example.org/a~b");
}

// --- error paths -----------------------------------------------------------

TEST(TurtleErrorTest, UndefinedPrefix) {
  const Status st = ParseErr("nope:a nope:b nope:c .");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("undefined prefix"), std::string::npos);
}

TEST(TurtleErrorTest, MissingDot) {
  EXPECT_FALSE(ParseErr("<http://x/s> <http://x/p> <http://x/o>").ok());
}

TEST(TurtleErrorTest, CollectionsRejectedWithClearMessage) {
  const Status st = ParseErr(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p ( "a" "b" ) .
)");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("collections"), std::string::npos);
}

TEST(TurtleErrorTest, TripleQuotesRejected) {
  const Status st = ParseErr(R"(
@prefix ex: <http://example.org/> .
ex:s ex:p """long""" .
)");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("triple-quoted"), std::string::npos);
}

TEST(TurtleErrorTest, ErrorsCarryLineNumbers) {
  const Status st = ParseErr("\n\n<http://x/s> <http://x/p> .\n");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("line 3"), std::string::npos);
}

// --- interop ---------------------------------------------------------------

TEST(TurtleInteropTest, MatchesNTriplesOnSharedSubset) {
  const std::string nt_doc =
      "<http://x/s> <http://x/p> \"value\"@en .\n"
      "<http://x/s> <http://x/q> <http://x/o> .\n";
  NTriplesParser nt;
  auto from_nt = nt.ParseString(nt_doc);
  TurtleParser ttl;
  auto from_ttl = ttl.ParseString(nt_doc);  // N-Triples is valid Turtle
  ASSERT_TRUE(from_nt.ok());
  ASSERT_TRUE(from_ttl.ok());
  ASSERT_EQ(from_nt->size(), from_ttl->size());
  for (size_t i = 0; i < from_nt->size(); ++i) {
    EXPECT_EQ((*from_nt)[i], (*from_ttl)[i]);
  }
}

TEST(TurtleInteropTest, LoadTriplesDispatchesByExtension) {
  const std::string dir = ::testing::TempDir();
  {
    std::ofstream out(dir + "/sample.ttl");
    out << "@prefix ex: <http://example.org/> .\nex:a ex:b ex:c .\n";
  }
  {
    std::ofstream out(dir + "/sample.nt");
    out << "<http://x/s> <http://x/p> \"v\" .\n";
  }
  auto ttl = LoadTriples(dir + "/sample.ttl");
  ASSERT_TRUE(ttl.ok());
  EXPECT_EQ(ttl->size(), 1u);
  auto nt = LoadTriples(dir + "/sample.nt");
  ASSERT_TRUE(nt.ok());
  EXPECT_EQ(nt->size(), 1u);
  EXPECT_FALSE(LoadTriples(dir + "/sample.xyz").ok());
}

TEST(TurtleInteropTest, LoadTriplesKnowsOnlyTheExtensionTable) {
  EXPECT_EQ(RdfFormatOf("a/b.nt"), RdfFormat::kNTriples);
  EXPECT_EQ(RdfFormatOf("a/b.ttl"), RdfFormat::kTurtle);
  EXPECT_EQ(RdfFormatOf("a/b.turtle"), RdfFormat::kTurtle);
  EXPECT_EQ(RdfFormatOf("a/b.ntriples"), RdfFormat::kUnknown);
  EXPECT_EQ(RdfFormatOf("a.nt/b"), RdfFormat::kUnknown);
  EXPECT_EQ(RdfFormatOf("a/.nt"), RdfFormat::kUnknown);
  const std::string path = ::testing::TempDir() + "/sample.ntriples";
  {
    std::ofstream out(path);
    out << "<http://x/s> <http://x/p> \"v\" .\n";
  }
  const auto result = LoadTriples(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kInvalidArgument);
}

TEST(TurtleInteropTest, LoadTriplesErrorNamesTheFile) {
  const std::string path = ::testing::TempDir() + "/broken.ttl";
  {
    std::ofstream out(path);
    out << "@prefix ex: <http://x/> .\nex:a ex:b ex:c .\nex:d ex:e ex:f ex:g .\n";
  }
  const auto result = LoadTriples(path);
  ASSERT_FALSE(result.ok());
  EXPECT_EQ(result.status().code(), StatusCode::kParseError);
  EXPECT_EQ(result.status().message().rfind(path + ": line 3: ", 0), 0u)
      << result.status();
}

// --- the shared term grammar ------------------------------------------------

TEST(TurtleGrammarTest, RejectsIllegalIriCharacters) {
  for (const char* bad : {"\t", "|", "{", "}", "^", "`", " ", "\""}) {
    const std::string doc =
        "<http://x/a" + std::string(bad) + "b> <http://x/p> \"v\" .";
    const Status st = ParseErr(doc);
    ASSERT_FALSE(st.ok()) << doc;
    EXPECT_NE(st.message().find("illegal character in IRI"), std::string::npos)
        << st;
  }
}

TEST(TurtleGrammarTest, RejectsCodePointsAboveUnicode) {
  for (const char* doc :
       {R"(<http://x/s> <http://x/p> "\UFFFFFFFF" .)",
        R"(<http://x/s> <http://x/p> '\U00110000' .)",
        R"(<http://x/\U00110000> <http://x/p> "v" .)"}) {
    const Status st = ParseErr(doc);
    ASSERT_FALSE(st.ok()) << doc;
    EXPECT_NE(st.message().find("code point out of range"), std::string::npos)
        << st;
  }
  const auto top = Parse(R"(<http://x/s> <http://x/p> "\U0010FFFF" .)");
  ASSERT_EQ(top.size(), 1u);
  EXPECT_EQ(top[0].object.lexical, "\xF4\x8F\xBF\xBF");
}

TEST(TurtleGrammarTest, RejectsBlankLabelStartingWithDash) {
  const Status st = ParseErr("_:-x <http://x/p> \"v\" .");
  ASSERT_FALSE(st.ok());
  EXPECT_NE(st.message().find("bad blank node label"), std::string::npos);
  const auto ok = Parse("_:x-1 <http://x/p> _:_y.z .");
  ASSERT_EQ(ok.size(), 1u);
  EXPECT_EQ(ok[0].subject.lexical, "x-1");
  EXPECT_EQ(ok[0].object.lexical, "_y.z");
}

TEST(TurtleGrammarTest, AcceptsTheIriEscapesTheWriterEmits) {
  const Triple written{Term::Iri("http://x/a\"b\\c\nd\te\rf"),
                       Term::Iri("http://x/p"), Term::Literal("v")};
  const std::string line = written.ToNTriples();
  ASSERT_EQ(line, R"(<http://x/a\"b\\c\nd\te\rf> <http://x/p> "v" .)");
  const auto triples = Parse(line);
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0], written);
}

TEST(TurtleGrammarTest, EmptyIriIsRelativeToBase) {
  const auto triples = Parse(R"(
@base <http://base.org/doc> .
<> <http://x/p> "v" .
)");
  ASSERT_EQ(triples.size(), 1u);
  EXPECT_EQ(triples[0].subject.lexical, "http://base.org/doc");
}

TEST(TurtleGrammarTest, NestingIsCappedAt256Levels) {
  auto nested = [](int levels) {
    std::string doc = "@prefix ex: <http://x/> .\nex:s ex:p ";
    for (int i = 0; i < levels; ++i) doc += "[ ex:q ";
    doc += "\"leaf\"";
    for (int i = 0; i < levels; ++i) doc += " ]";
    return doc + " .\n";
  };
  EXPECT_EQ(Parse(nested(256)).size(), 257u);
  const Status st = ParseErr(nested(257));
  ASSERT_FALSE(st.ok());
  EXPECT_EQ(st.code(), StatusCode::kParseError);
  EXPECT_NE(st.message().find("nesting exceeds 256 levels"), std::string::npos)
      << st;
}

TEST(TurtleGrammarTest, AnonymousNodesNeverTakeASpelledLabel) {
  const auto triples = Parse(R"(
@prefix ex: <http://x/> .
_:anon1 ex:p "x" .
ex:s ex:q [ ex:r "y" ] , [ ex:r "z" ] .
ex:t ex:q _:anon3 .
)");
  ASSERT_EQ(triples.size(), 6u);
  EXPECT_EQ(triples[0].subject.lexical, "anon1");
  // The two anonymous nodes skip the spelled anon1 and anon3.
  EXPECT_EQ(triples[1].subject.lexical, "anon2");
  EXPECT_EQ(triples[2].object.lexical, "anon2");
  EXPECT_EQ(triples[3].subject.lexical, "anon4");
  EXPECT_EQ(triples[4].object.lexical, "anon4");
  EXPECT_EQ(triples[5].object.lexical, "anon3");
}

// Random terms drawn from everything the writer can spell: IRIs and
// literals holding characters it escapes and multi-byte UTF-8, language
// tags, datatypes and blank labels.
class TermGenerator {
 public:
  explicit TermGenerator(uint64_t seed) : rng_(seed) {}

  Term Iri() {
    return Term::Iri("http://x.org/" +
                     Text("abcXYZ019-._~:/?#@!$&'()*+,;=%[]", 12));
  }

  Term Blank() {
    static constexpr std::string_view kFirst = "abcXYZ019_";
    static constexpr std::string_view kRest = "abcXYZ019_-";
    std::string label(1, kFirst[rng_.Below(kFirst.size())]);
    const uint64_t length = rng_.Below(8);
    for (uint64_t i = 0; i < length; ++i) {
      if (rng_.Chance(0.1)) label += "\xC3\xA9";
      if (rng_.Chance(0.15)) label += '.';
      label += kRest[rng_.Below(kRest.size())];
    }
    return Term::Blank(label);
  }

  Term Literal() {
    std::string value = Text("abc XYZ 019 <>{}|^`'#@_:.,;[]()\b\f", 16);
    switch (rng_.Below(3)) {
      case 0:
        return Term::Literal(std::move(value));
      case 1:
        return Term::Literal(std::move(value), "", Language());
      default:
        return Term::Literal(std::move(value), Iri().lexical);
    }
  }

  Triple Next() {
    Triple t;
    t.subject = rng_.Chance(0.7) ? Iri() : Blank();
    t.predicate = Iri();
    const uint64_t kind = rng_.Below(3);
    t.object = kind == 0 ? Iri() : (kind == 1 ? Blank() : Literal());
    return t;
  }

  Rng& rng() { return rng_; }

 private:
  std::string Text(std::string_view alphabet, uint64_t max_pieces) {
    static const char* const kTricky[] = {
        "\"", "\\", "\t", "\n", "\r", "\xC3\xA9", "\xCE\xBB\xCF\x8C",
        "\xE6\x97\xA5\xE6\x9C\xAC", "\xF0\x9F\x98\x80"};
    std::string out;
    const uint64_t pieces = rng_.Below(max_pieces + 1);
    for (uint64_t i = 0; i < pieces; ++i) {
      if (rng_.Chance(0.3)) {
        out += kTricky[rng_.Below(std::size(kTricky))];
      } else {
        out += alphabet[rng_.Below(alphabet.size())];
      }
    }
    return out;
  }

  std::string Language() {
    static constexpr std::string_view kAlpha = "abcdefghijklmnopqrstuvwxyzEN";
    std::string tag;
    for (uint64_t i = 0, n = 2 + rng_.Below(2); i < n; ++i) {
      tag += kAlpha[rng_.Below(kAlpha.size())];
    }
    if (rng_.Chance(0.5)) tag += "-GR1";
    return tag;
  }

  Rng rng_;
};

NTriplesParser StrictNTriples() {
  NTriplesOptions options;
  options.strict = true;
  return NTriplesParser(options);
}

TEST(TurtleGrammarTest, EveryWrittenLineReadsBackThroughBothParsers) {
  TermGenerator gen(0x5eed);
  const NTriplesParser nt = StrictNTriples();
  for (int i = 0; i < 3000; ++i) {
    const Triple written = gen.Next();
    const std::string line = written.ToNTriples();
    Triple from_nt;
    bool is_triple = false;
    const Status st = nt.ParseLine(line, from_nt, is_triple);
    ASSERT_TRUE(st.ok() && is_triple) << line << "\n" << st;
    EXPECT_EQ(from_nt, written) << line;
    const auto from_ttl = TurtleParser().ParseString(line);
    ASSERT_TRUE(from_ttl.ok()) << line << "\n" << from_ttl.status();
    ASSERT_EQ(from_ttl->size(), 1u) << line;
    EXPECT_EQ((*from_ttl)[0], written) << line;
  }
}

TEST(TurtleGrammarTest, EveryEscapeSpellingDecodesAlikeInBothParsers) {
  // Each character with the UTF-8 bytes it decodes to, its ECHAR (if any),
  // and whether a literal may hold it raw.
  struct Char {
    uint32_t cp;
    const char* utf8;
    const char* echar;
    bool raw;
  };
  static const Char kChars[] = {
      {'a', "a", nullptr, true},
      {'Z', "Z", nullptr, true},
      {'\t', "\t", "\\t", true},
      {'\b', "\b", "\\b", true},
      {'\n', "\n", "\\n", false},
      {'\r', "\r", "\\r", true},
      {'\f', "\f", "\\f", true},
      {'"', "\"", "\\\"", false},
      {'\'', "'", "\\'", true},
      {'\\', "\\", "\\\\", false},
      {0xE9, "\xC3\xA9", nullptr, true},
      {0x65E5, "\xE6\x97\xA5", nullptr, true},
      {0x1F600, "\xF0\x9F\x98\x80", nullptr, true},
      {0x10FFFF, "\xF4\x8F\xBF\xBF", nullptr, true}};
  Rng rng(0xec4a);
  const NTriplesParser nt = StrictNTriples();
  for (int i = 0; i < 2000; ++i) {
    std::string spelled, expected;
    for (uint64_t k = 0, n = rng.Below(12); k < n; ++k) {
      const Char& c = kChars[rng.Below(std::size(kChars))];
      expected += c.utf8;
      char hex[16];
      switch (rng.Below(4)) {
        case 0:
          if (c.raw) {
            spelled += c.utf8;
            break;
          }
          [[fallthrough]];
        case 1:
          if (c.echar != nullptr) {
            spelled += c.echar;
            break;
          }
          [[fallthrough]];
        case 2:
          if (c.cp <= 0xFFFF) {
            std::snprintf(hex, sizeof(hex),
                          rng.Chance(0.5) ? "\\u%04X" : "\\u%04x",
                          static_cast<unsigned>(c.cp));
            spelled += hex;
            break;
          }
          [[fallthrough]];
        default:
          std::snprintf(hex, sizeof(hex), "\\U%08X",
                        static_cast<unsigned>(c.cp));
          spelled += hex;
      }
    }
    // The same spelling as a literal and, escaped alike, inside an IRI.
    const std::string line = "<http://x/s> <http://x/" + spelled +
                             "> \"" + spelled + "\"@el .";
    const Triple want{Term::Iri("http://x/s"), Term::Iri("http://x/" + expected),
                      Term::Literal(expected, "", "el")};
    Triple from_nt;
    bool is_triple = false;
    const bool iri_ok = spelled.find_first_of("\t\r\b\f") == std::string::npos;
    const Status st = nt.ParseLine(line, from_nt, is_triple);
    const auto from_ttl = TurtleParser().ParseString(line);
    if (!iri_ok) {
      // A raw control character or quote is legal in a literal, not an IRI.
      EXPECT_FALSE(st.ok()) << line;
      EXPECT_FALSE(from_ttl.ok()) << line;
      continue;
    }
    ASSERT_TRUE(st.ok() && is_triple) << line << "\n" << st;
    EXPECT_EQ(from_nt, want) << line;
    ASSERT_TRUE(from_ttl.ok()) << line << "\n" << from_ttl.status();
    ASSERT_EQ(from_ttl->size(), 1u);
    EXPECT_EQ((*from_ttl)[0], want) << line;
  }
}

TEST(TurtleGrammarTest, TurtleAcceptsEveryMutantNTriplesAccepts) {
  TermGenerator gen(0xd1ff);
  Rng& rng = gen.rng();
  const NTriplesParser nt = StrictNTriples();
  int accepted = 0;
  for (int i = 0; i < 20000; ++i) {
    std::string line = gen.Next().ToNTriples();
    for (uint64_t e = 0, edits = 1 + rng.Below(2); e < edits; ++e) {
      const size_t at = rng.Below(line.size());
      switch (rng.Below(3)) {
        case 0:
          line[at] = static_cast<char>(line[at] ^ (1 << rng.Below(8)));
          break;
        case 1:
          line.insert(at, 1, static_cast<char>(rng.Below(256)));
          break;
        default:
          line.erase(at, 1);
      }
    }
    // A line holds no line break: the stream parser splits on them.
    if (line.find('\n') != std::string::npos) continue;
    Triple from_nt;
    bool is_triple = false;
    if (!nt.ParseLine(line, from_nt, is_triple).ok() || !is_triple) continue;
    ++accepted;
    const auto from_ttl = TurtleParser().ParseString(line);
    ASSERT_TRUE(from_ttl.ok()) << line << "\n" << from_ttl.status();
    ASSERT_EQ(from_ttl->size(), 1u) << line;
    EXPECT_EQ((*from_ttl)[0], from_nt) << line;
  }
  EXPECT_GT(accepted, 2000);
}

}  // namespace
}  // namespace rdf
}  // namespace minoan
