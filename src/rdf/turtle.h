// Copyright 2026 The MinoanER Authors.
// Turtle (Terse RDF Triple Language) parser — the subset real LOD dumps use.
//
// One term grammar: IRIREF, quoted strings with their escapes, language
// tags and blank-node labels are lexed by rdf/term_lexer.h, the code the
// N-Triples parser runs, so every N-Triples line this module writes or
// accepts reads as the same triple here. What Turtle adds on top:
//   * @prefix / PREFIX and @base / BASE directives;
//   * prefixed names (ex:Thing), also as `^^ex:type` datatypes, and `<>` or
//     relative IRIs resolved against @base;
//   * predicate lists (";"), object lists (",");
//   * the "a" keyword for rdf:type;
//   * single-quoted strings and the numeric (integer/decimal/double) and
//     boolean shorthands;
//   * anonymous/nested blank nodes [ ... ], labelled anon1, anon2, ... in
//     order of appearance, skipping any label the document spells itself;
//     nesting deeper than 256 levels is a parse error, not a stack overflow;
//   * comments (#) anywhere outside of strings, and errors prefixed
//     "line N: ".
//
// Not supported (rejected with a parse error): collections "( ... )",
// triple-quoted strings, and RDF-star. Periphery dumps rarely use them; the
// error message names the construct so users know why a file was rejected.
//
// LoadTriples reads a file by its extension (RdfFormatOf, the one extension
// table; the directory loader lists the same files).

#ifndef MINOAN_RDF_TURTLE_H_
#define MINOAN_RDF_TURTLE_H_

#include <string>
#include <string_view>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"

namespace minoan {
namespace rdf {

/// Turtle parser configuration.
struct TurtleOptions {
  /// Base IRI used before any @base directive (for relative IRIs).
  std::string base_iri;
};

/// Parses a whole Turtle document into triples.
class TurtleParser {
 public:
  explicit TurtleParser(TurtleOptions options) : options_(std::move(options)) {}
  TurtleParser() : options_{} {}

  /// Parses an in-memory document.
  Result<std::vector<Triple>> ParseString(std::string_view document) const;

  /// Parses a file.
  Result<std::vector<Triple>> ParseFile(const std::string& path) const;

 private:
  TurtleOptions options_;
};

/// The RDF serialisations read from files, named by extension.
enum class RdfFormat { kUnknown, kNTriples, kTurtle };

/// The one extension table: ".nt" is N-Triples, ".ttl" and ".turtle" are
/// Turtle, anything else is unknown. The directory loader lists exactly the
/// files this recognises.
RdfFormat RdfFormatOf(std::string_view path);

/// Loads triples from a path by RdfFormatOf: N-Triples through the lenient
/// line parser, Turtle through TurtleParser. A Turtle parse error is
/// prefixed with the path, so a bad file among many is named.
Result<std::vector<Triple>> LoadTriples(const std::string& path);

}  // namespace rdf
}  // namespace minoan

#endif  // MINOAN_RDF_TURTLE_H_
