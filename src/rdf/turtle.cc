#include "rdf/turtle.h"

#include <algorithm>
#include <cctype>
#include <fstream>
#include <sstream>
#include <unordered_map>
#include <unordered_set>

#include "rdf/iri.h"
#include "rdf/ntriples.h"
#include "rdf/term_lexer.h"

namespace minoan {
namespace rdf {

namespace {

constexpr std::string_view kXsdDecimal =
    "http://www.w3.org/2001/XMLSchema#decimal";
constexpr std::string_view kXsdDouble =
    "http://www.w3.org/2001/XMLSchema#double";
constexpr std::string_view kXsdBoolean =
    "http://www.w3.org/2001/XMLSchema#boolean";

using lex::IsPnChar;

/// Minimal relative-IRI resolution sufficient for LOD dumps.
std::string ResolveIri(const std::string& base, const std::string& rel) {
  if (rel.empty()) return base;
  if (LooksLikeAbsoluteIri(rel)) return rel;
  if (base.empty()) return rel;
  if (rel[0] == '#') {
    const size_t hash = base.find('#');
    return base.substr(0, hash) + rel;
  }
  const size_t scheme_end = base.find("://");
  if (scheme_end == std::string::npos) return rel;
  if (rel.rfind("//", 0) == 0) {
    return base.substr(0, scheme_end + 1) + rel;
  }
  const size_t authority_end = base.find('/', scheme_end + 3);
  if (rel[0] == '/') {
    return (authority_end == std::string::npos
                ? base
                : base.substr(0, authority_end)) +
           rel;
  }
  // Relative path: replace everything after the last '/'.
  const size_t last_slash = base.rfind('/');
  if (last_slash == std::string::npos || last_slash < scheme_end + 3) {
    return base + "/" + rel;
  }
  return base.substr(0, last_slash + 1) + rel;
}

/// Deepest `[ ... ]` nesting accepted; each level recurses through four
/// frames, so a hostile document could otherwise overflow the stack.
constexpr int kMaxBlankNodeNesting = 256;

/// First character of an anonymous node's provisional label. The blank-node
/// lexer never produces a label that starts with '-', so until the
/// post-pass names them, anonymous nodes cannot collide with spelled ones.
constexpr char kAnonMarker = '-';

/// Recursive-descent Turtle document parser. The terms both grammars share
/// are lexed by rdf/term_lexer.h; this class adds the Turtle-only syntax.
class Parser {
 public:
  Parser(std::string_view doc, std::string base)
      : cur_(doc), base_(std::move(base)) {}

  Result<std::vector<Triple>> Run() {
    for (;;) {
      SkipWs();
      if (cur_.AtEnd()) break;
      Status st = ParseStatement();
      if (!st.ok()) return Annotate(st);
    }
    NameAnonymousNodes();
    return std::move(triples_);
  }

 private:
  /// Skips whitespace, line breaks and comments.
  void SkipWs() {
    while (!cur_.AtEnd()) {
      const char c = cur_.Peek();
      if (c == '#') {
        while (!cur_.AtEnd() && cur_.Next() != '\n') {
        }
      } else if (c == ' ' || c == '\t' || c == '\r' || c == '\n') {
        cur_.Next();
      } else {
        break;
      }
    }
  }

  bool ConsumeKeyword(std::string_view word) {
    const std::string_view rest = cur_.rest();
    if (rest.size() < word.size()) return false;
    for (size_t i = 0; i < word.size(); ++i) {
      if (std::tolower(static_cast<unsigned char>(rest[i])) !=
          std::tolower(static_cast<unsigned char>(word[i]))) {
        return false;
      }
    }
    const char after = cur_.PeekAt(word.size());
    if (IsPnChar(after) || after == ':') return false;
    cur_.Seek(cur_.pos() + word.size());
    return true;
  }

  Status Annotate(const Status& st) const {
    const std::string_view consumed = cur_.consumed();
    const auto line = std::count(consumed.begin(), consumed.end(), '\n') + 1;
    return Status::ParseError("line " + std::to_string(line) + ": " +
                              st.message());
  }

  // --- grammar -------------------------------------------------------------

  Status ParseStatement() {
    if (cur_.Peek() == '@') {
      cur_.Next();
      if (ConsumeKeyword("prefix")) return ParsePrefixDirective(true);
      if (ConsumeKeyword("base")) return ParseBaseDirective(true);
      return cur_.Error("unknown @directive");
    }
    // SPARQL-style directives (no trailing dot).
    if (ConsumeKeyword("prefix")) return ParsePrefixDirective(false);
    if (ConsumeKeyword("base")) return ParseBaseDirective(false);
    return ParseTriples();
  }

  Status ParsePrefixDirective(bool turtle_style) {
    SkipWs();
    const std::string prefix(
        cur_.TakeWhile([](char c) { return IsPnChar(c) || c == '.'; }));
    if (cur_.Next() != ':') return cur_.Error("expected ':' in @prefix");
    SkipWs();
    std::string iri;
    MINOAN_RETURN_IF_ERROR(lex::LexIriRef(cur_, iri));
    prefixes_[prefix] = std::move(iri);
    SkipWs();
    if (turtle_style && cur_.Next() != '.') {
      return cur_.Error("expected '.' after @prefix");
    }
    return Status::Ok();
  }

  Status ParseBaseDirective(bool turtle_style) {
    SkipWs();
    base_.clear();
    MINOAN_RETURN_IF_ERROR(lex::LexIriRef(cur_, base_));
    SkipWs();
    if (turtle_style && cur_.Next() != '.') {
      return cur_.Error("expected '.' after @base");
    }
    return Status::Ok();
  }

  Status ParseTriples() {
    Term subject;
    if (cur_.Peek() == '[') {
      MINOAN_RETURN_IF_ERROR(ParseBlankNodePropertyList(subject));
      SkipWs();
      // A bare "[ ... ] ." is legal; predicate list optional after [].
      if (cur_.Peek() == '.') {
        cur_.Next();
        return Status::Ok();
      }
    } else {
      MINOAN_RETURN_IF_ERROR(ParseSubject(subject));
    }
    MINOAN_RETURN_IF_ERROR(ParsePredicateObjectList(subject));
    SkipWs();
    if (cur_.Next() != '.') return cur_.Error("expected '.' at end of triples");
    return Status::Ok();
  }

  Status ParsePredicateObjectList(const Term& subject) {
    for (;;) {
      SkipWs();
      Term predicate;
      MINOAN_RETURN_IF_ERROR(ParseVerb(predicate));
      MINOAN_RETURN_IF_ERROR(ParseObjectList(subject, predicate));
      SkipWs();
      if (cur_.Peek() != ';') break;
      cur_.Next();
      SkipWs();
      // Trailing ';' before '.' or ']' is legal.
      if (cur_.Peek() == '.' || cur_.Peek() == ']') break;
    }
    return Status::Ok();
  }

  Status ParseObjectList(const Term& subject, const Term& predicate) {
    for (;;) {
      SkipWs();
      Term object;
      MINOAN_RETURN_IF_ERROR(ParseObject(object));
      triples_.push_back({subject, predicate, object});
      SkipWs();
      if (cur_.Peek() != ',') break;
      cur_.Next();
    }
    return Status::Ok();
  }

  Status ParseVerb(Term& out) {
    if (cur_.Peek() == 'a') {
      const char after = cur_.PeekAt(1);
      if (!IsPnChar(after) && after != ':') {
        cur_.Next();
        out = Term::Iri(std::string(kRdfType));
        return Status::Ok();
      }
    }
    return ParseIri(out);
  }

  Status ParseSubject(Term& out) {
    SkipWs();
    if (cur_.Peek() == '_') return lex::LexBlankNode(cur_, out);
    if (cur_.Peek() == '(') {
      return cur_.Error("RDF collections '(...)' not supported");
    }
    return ParseIri(out);
  }

  Status ParseObject(Term& out) {
    SkipWs();
    const char c = cur_.Peek();
    if (c == '<') return ParseIri(out);
    if (c == '_') return lex::LexBlankNode(cur_, out);
    if (c == '[') return ParseBlankNodePropertyList(out);
    if (c == '(') return cur_.Error("RDF collections '(...)' not supported");
    if (c == '"' || c == '\'') return ParseLiteral(out);
    if (c == '+' || c == '-' || std::isdigit(static_cast<unsigned char>(c))) {
      return ParseNumericLiteral(out);
    }
    if (ConsumeKeyword("true")) {
      out = Term::Literal("true", std::string(kXsdBoolean));
      return Status::Ok();
    }
    if (ConsumeKeyword("false")) {
      out = Term::Literal("false", std::string(kXsdBoolean));
      return Status::Ok();
    }
    return ParseIri(out);  // prefixed name
  }

  /// IRIREF (resolved against @base) or prefixed name.
  Status ParseIri(Term& out) {
    SkipWs();
    if (cur_.Peek() == '<') {
      std::string iri;
      MINOAN_RETURN_IF_ERROR(lex::LexIriRef(cur_, iri));
      out = Term::Iri(ResolveIri(base_, iri));
      return Status::Ok();
    }
    // Prefixed name: PN_PREFIX? ':' PN_LOCAL.
    std::string prefix;
    while (IsPnChar(cur_.Peek()) ||
           (cur_.Peek() == '.' && IsPnChar(cur_.PeekAt(1)))) {
      prefix += cur_.Next();
    }
    if (cur_.Peek() != ':') {
      return cur_.Error("expected IRI or prefixed name");
    }
    cur_.Next();
    auto it = prefixes_.find(prefix);
    if (it == prefixes_.end()) {
      return cur_.Error("undefined prefix '" + prefix + ":'");
    }
    std::string local;
    for (;;) {
      const char c = cur_.Peek();
      if (IsPnChar(c) || c == ':' || c == '%') {
        local += cur_.Next();
      } else if (c == '\\') {
        cur_.Next();
        local += cur_.Next();  // PN_LOCAL_ESC: take the escaped char verbatim
      } else if (c == '.' && (IsPnChar(cur_.PeekAt(1)) ||
                              cur_.PeekAt(1) == ':' || cur_.PeekAt(1) == '%')) {
        local += cur_.Next();  // interior dot
      } else {
        break;
      }
    }
    out = Term::Iri(it->second + local);
    return Status::Ok();
  }

  Status ParseBlankNodePropertyList(Term& out) {
    if (depth_ == kMaxBlankNodeNesting) {
      return cur_.Error("blank node nesting exceeds " +
                        std::to_string(kMaxBlankNodeNesting) + " levels");
    }
    cur_.Next();  // '['
    out = Term::Blank(kAnonMarker + std::to_string(++anon_count_));
    SkipWs();
    if (cur_.Peek() == ']') {
      cur_.Next();
      return Status::Ok();
    }
    // An error aborts the whole parse, so depth_ needs no unwinding.
    ++depth_;
    MINOAN_RETURN_IF_ERROR(ParsePredicateObjectList(out));
    --depth_;
    SkipWs();
    if (cur_.Next() != ']') return cur_.Error("expected ']'");
    return Status::Ok();
  }

  /// Renames the provisional anonymous labels, in order of appearance, to
  /// anon1, anon2, ..., skipping every label the document spells itself.
  void NameAnonymousNodes() {
    if (anon_count_ == 0) return;
    std::unordered_set<std::string> spelled;
    for (const Triple& t : triples_) {
      for (const Term* term : {&t.subject, &t.object}) {
        if (term->is_blank() && term->lexical[0] != kAnonMarker) {
          spelled.insert(term->lexical);
        }
      }
    }
    std::vector<std::string> names;
    names.reserve(anon_count_);
    for (uint64_t n = 1; names.size() < anon_count_; ++n) {
      std::string name = "anon" + std::to_string(n);
      if (spelled.count(name) == 0) names.push_back(std::move(name));
    }
    for (Triple& t : triples_) {
      for (Term* term : {&t.subject, &t.object}) {
        if (term->is_blank() && term->lexical[0] == kAnonMarker) {
          term->lexical = names[std::stoull(term->lexical.substr(1)) - 1];
        }
      }
    }
  }

  /// A quoted literal with an optional language tag or datatype.
  Status ParseLiteral(Term& out) {
    const char quote = cur_.Peek();
    if (cur_.PeekAt(1) == quote && cur_.PeekAt(2) == quote) {
      return cur_.Error("triple-quoted strings not supported");
    }
    std::string value;
    MINOAN_RETURN_IF_ERROR(lex::LexQuotedString(cur_, quote, value));
    std::string language, datatype;
    if (cur_.Peek() == '@') {
      MINOAN_RETURN_IF_ERROR(lex::LexLangTag(cur_, language));
    } else if (cur_.Peek() == '^' && cur_.PeekAt(1) == '^') {
      cur_.Next();
      cur_.Next();
      Term dt;
      MINOAN_RETURN_IF_ERROR(ParseIri(dt));
      datatype = std::move(dt.lexical);
    }
    out = Term::Literal(std::move(value), std::move(datatype),
                        std::move(language));
    return Status::Ok();
  }

  Status ParseNumericLiteral(Term& out) {
    std::string text;
    if (cur_.Peek() == '+' || cur_.Peek() == '-') text += cur_.Next();
    bool has_dot = false, has_exp = false;
    while (std::isdigit(static_cast<unsigned char>(cur_.Peek())) ||
           (cur_.Peek() == '.' &&
            std::isdigit(static_cast<unsigned char>(cur_.PeekAt(1)))) ||
           cur_.Peek() == 'e' || cur_.Peek() == 'E') {
      const char c = cur_.Next();
      if (c == '.') has_dot = true;
      if (c == 'e' || c == 'E') {
        has_exp = true;
        text += c;
        if (cur_.Peek() == '+' || cur_.Peek() == '-') text += cur_.Next();
        continue;
      }
      text += c;
    }
    if (text.empty() || text == "+" || text == "-") {
      return cur_.Error("malformed numeric literal");
    }
    const std::string_view datatype =
        has_exp ? kXsdDouble : (has_dot ? kXsdDecimal : kXsdInteger);
    out = Term::Literal(std::move(text), std::string(datatype));
    return Status::Ok();
  }

  lex::Cursor cur_;
  std::string base_;
  std::unordered_map<std::string, std::string> prefixes_;
  int depth_ = 0;
  uint64_t anon_count_ = 0;
  std::vector<Triple> triples_;
};

}  // namespace

Result<std::vector<Triple>> TurtleParser::ParseString(
    std::string_view document) const {
  Parser parser(document, options_.base_iri);
  return parser.Run();
}

Result<std::vector<Triple>> TurtleParser::ParseFile(
    const std::string& path) const {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  std::ostringstream buffer;
  buffer << in.rdbuf();
  return ParseString(buffer.str());
}

RdfFormat RdfFormatOf(std::string_view path) {
  const size_t slash = path.rfind('/');
  const std::string_view name =
      slash == std::string_view::npos ? path : path.substr(slash + 1);
  // A leading '.' names a hidden file, not an extension.
  const size_t dot = name.rfind('.');
  const std::string_view ext = dot == std::string_view::npos || dot == 0
                                   ? std::string_view()
                                   : name.substr(dot);
  if (ext == ".nt") return RdfFormat::kNTriples;
  if (ext == ".ttl" || ext == ".turtle") return RdfFormat::kTurtle;
  return RdfFormat::kUnknown;
}

Result<std::vector<Triple>> LoadTriples(const std::string& path) {
  switch (RdfFormatOf(path)) {
    case RdfFormat::kNTriples:
      return NTriplesParser().ParseFile(path);  // lenient: no parse errors
    case RdfFormat::kTurtle: {
      Result<std::vector<Triple>> triples = TurtleParser().ParseFile(path);
      if (!triples.ok() && triples.status().code() == StatusCode::kParseError) {
        return Status::ParseError(path + ": " + triples.status().message());
      }
      return triples;
    }
    case RdfFormat::kUnknown:
      break;
  }
  return Status::InvalidArgument("unknown RDF extension: " + path);
}

}  // namespace rdf
}  // namespace minoan
