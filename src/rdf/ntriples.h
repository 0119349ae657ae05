// Copyright 2026 The MinoanER Authors.
// N-Triples reader and writer (the Linked-Data ingestion substrate).
//
// The parser implements the W3C N-Triples grammar restricted to what Linked
// Open Data dumps actually use: one triple per line, `#` comments, IRIREF,
// BLANK_NODE_LABEL, STRING_LITERAL_QUOTE with language tag or datatype, and
// the escape sequences \t \b \n \r \f \" \' \\ \uXXXX \UXXXXXXXX (code
// points up to U+10FFFF) in literals and IRIs alike, so every IRI the writer
// escapes reads back. Its terms are lexed by rdf/term_lexer.h, the one term
// grammar of this module: the Turtle parser lexes the same terms with the
// same code, so a line accepted here reads as the same triple there.
// Malformed lines are reported with line numbers; callers choose strict
// (first error aborts) or lenient (skip-and-count) mode, because periphery
// LOD dumps are routinely dirty.

#ifndef MINOAN_RDF_NTRIPLES_H_
#define MINOAN_RDF_NTRIPLES_H_

#include <cstdint>
#include <functional>
#include <istream>
#include <ostream>
#include <string>
#include <vector>

#include "rdf/term.h"
#include "util/status.h"

namespace minoan {
namespace rdf {

/// Parser configuration.
struct NTriplesOptions {
  /// When false, a malformed line is skipped and counted instead of aborting.
  bool strict = false;
  /// Hard cap on accepted line length (defense against corrupt dumps).
  size_t max_line_bytes = 1 << 20;
};

/// Statistics of one parse run.
struct ParseStats {
  uint64_t lines = 0;
  uint64_t triples = 0;
  uint64_t comments = 0;
  uint64_t skipped = 0;  // malformed lines in lenient mode
};

/// Streaming N-Triples parser.
class NTriplesParser {
 public:
  explicit NTriplesParser(NTriplesOptions options = NTriplesOptions())
      : options_(options) {}

  /// Parses a single N-Triples line (without trailing newline) into `out`.
  /// Returns OK and sets `is_triple=false` for blank/comment lines.
  Status ParseLine(std::string_view line, Triple& out, bool& is_triple) const;

  /// Parses an entire stream, invoking `sink` for every triple. Returns the
  /// first error in strict mode; in lenient mode always OK (inspect stats).
  Status ParseStream(std::istream& in,
                     const std::function<void(Triple&&)>& sink,
                     ParseStats* stats = nullptr) const;

  /// Convenience: parses a whole file into a vector.
  Result<std::vector<Triple>> ParseFile(const std::string& path,
                                        ParseStats* stats = nullptr) const;

  /// Convenience: parses an in-memory document into a vector.
  Result<std::vector<Triple>> ParseString(std::string_view document,
                                          ParseStats* stats = nullptr) const;

 private:
  NTriplesOptions options_;
};

/// Serializes triples to an N-Triples stream (one line each).
class NTriplesWriter {
 public:
  explicit NTriplesWriter(std::ostream& out) : out_(out) {}

  void Write(const Triple& triple) { out_ << triple.ToNTriples() << "\n"; }

  void WriteAll(const std::vector<Triple>& triples) {
    for (const auto& t : triples) Write(t);
  }

 private:
  std::ostream& out_;
};

}  // namespace rdf
}  // namespace minoan

#endif  // MINOAN_RDF_NTRIPLES_H_
