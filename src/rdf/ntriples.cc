#include "rdf/ntriples.h"

#include <fstream>
#include <sstream>

#include "rdf/term_lexer.h"

namespace minoan {
namespace rdf {

namespace {

using lex::Cursor;

/// Parses <IRIREF>; cursor positioned at '<'.
Status ParseIri(Cursor& cur, Term& out) {
  std::string iri;
  MINOAN_RETURN_IF_ERROR(lex::LexIriRef(cur, iri));
  if (iri.empty()) return cur.Error("empty IRI");
  out = Term::Iri(std::move(iri));
  return Status::Ok();
}

/// Parses "literal"(@lang | ^^<iri>)?; cursor positioned at '"'.
Status ParseLiteral(Cursor& cur, Term& out) {
  std::string value;
  MINOAN_RETURN_IF_ERROR(lex::LexQuotedString(cur, '"', value));
  std::string language, datatype;
  if (cur.Peek() == '@') {
    MINOAN_RETURN_IF_ERROR(lex::LexLangTag(cur, language));
  } else if (cur.Peek() == '^') {
    cur.Next();
    if (cur.Next() != '^') return cur.Error("expected '^^'");
    if (cur.Peek() != '<') return cur.Error("expected datatype IRI");
    Term dt;
    MINOAN_RETURN_IF_ERROR(ParseIri(cur, dt));
    datatype = std::move(dt.lexical);
  }
  out = Term::Literal(std::move(value), std::move(datatype),
                      std::move(language));
  return Status::Ok();
}

Status ParseSubject(Cursor& cur, Term& out) {
  if (cur.Peek() == '<') return ParseIri(cur, out);
  if (cur.Peek() == '_') return lex::LexBlankNode(cur, out);
  return cur.Error("subject must be IRI or blank node");
}

Status ParseObject(Cursor& cur, Term& out) {
  if (cur.Peek() == '<') return ParseIri(cur, out);
  if (cur.Peek() == '_') return lex::LexBlankNode(cur, out);
  if (cur.Peek() == '"') return ParseLiteral(cur, out);
  return cur.Error("object must be IRI, blank node, or literal");
}

}  // namespace

Status NTriplesParser::ParseLine(std::string_view line, Triple& out,
                                 bool& is_triple) const {
  is_triple = false;
  if (line.size() > options_.max_line_bytes) {
    return Status::ParseError("line exceeds max_line_bytes");
  }
  Cursor cur(line);
  cur.SkipWhitespace();
  if (cur.AtEnd() || cur.Peek() == '#') return Status::Ok();

  MINOAN_RETURN_IF_ERROR(ParseSubject(cur, out.subject));
  cur.SkipWhitespace();
  if (cur.Peek() != '<') return cur.Error("predicate must be an IRI");
  MINOAN_RETURN_IF_ERROR(ParseIri(cur, out.predicate));
  cur.SkipWhitespace();
  MINOAN_RETURN_IF_ERROR(ParseObject(cur, out.object));
  cur.SkipWhitespace();
  if (cur.Next() != '.') return cur.Error("missing statement terminator '.'");
  cur.SkipWhitespace();
  if (!cur.AtEnd() && cur.Peek() != '#') {
    return cur.Error("trailing content after '.'");
  }
  is_triple = true;
  return Status::Ok();
}

Status NTriplesParser::ParseStream(std::istream& in,
                                   const std::function<void(Triple&&)>& sink,
                                   ParseStats* stats) const {
  std::string line;
  ParseStats local;
  uint64_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    ++local.lines;
    if (!line.empty() && line.back() == '\r') line.pop_back();
    Triple triple;
    bool is_triple = false;
    Status st = ParseLine(line, triple, is_triple);
    if (!st.ok()) {
      if (options_.strict) {
        if (stats) *stats = local;
        return Status::ParseError("line " + std::to_string(line_no) + ": " +
                                  st.message());
      }
      ++local.skipped;
      continue;
    }
    if (is_triple) {
      ++local.triples;
      sink(std::move(triple));
    } else {
      ++local.comments;
    }
  }
  if (stats) *stats = local;
  return Status::Ok();
}

Result<std::vector<Triple>> NTriplesParser::ParseFile(const std::string& path,
                                                      ParseStats* stats) const {
  std::ifstream in(path);
  if (!in) return Status::IoError("cannot open: " + path);
  std::vector<Triple> triples;
  MINOAN_RETURN_IF_ERROR(ParseStream(
      in, [&](Triple&& t) { triples.push_back(std::move(t)); }, stats));
  return triples;
}

Result<std::vector<Triple>> NTriplesParser::ParseString(
    std::string_view document, ParseStats* stats) const {
  std::istringstream in{std::string(document)};
  std::vector<Triple> triples;
  MINOAN_RETURN_IF_ERROR(ParseStream(
      in, [&](Triple&& t) { triples.push_back(std::move(t)); }, stats));
  return triples;
}

}  // namespace rdf
}  // namespace minoan
