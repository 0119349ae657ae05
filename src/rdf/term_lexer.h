// Copyright 2026 The MinoanER Authors.
// The one RDF term lexer, shared by the N-Triples and Turtle parsers.
//
// Both grammars spell their terms with the same terminals: IRIREF, a quoted
// string with the ECHAR and UCHAR escapes, LANGTAG and BLANK_NODE_LABEL.
// This header lexes each of them once. Every lexer starts on the token's
// opening character and leaves the cursor just past the token; what a term
// means beyond its spelling (an empty IRI, relative-IRI resolution, a
// datatype written as a prefixed name) is the calling parser's business.
//
// The definitions are inline so that the N-Triples line parser, which
// dominates corpus load, can inline the lexers it runs on every term.
// Internal to src/rdf/.

#ifndef MINOAN_RDF_TERM_LEXER_H_
#define MINOAN_RDF_TERM_LEXER_H_

#include <cctype>
#include <cstdint>
#include <string>
#include <string_view>

#include "rdf/term.h"
#include "util/status.h"

namespace minoan {
namespace rdf {
namespace lex {

/// Cursor over a line (N-Triples) or a whole document (Turtle).
class Cursor {
 public:
  explicit Cursor(std::string_view text) : text_(text) {}

  bool AtEnd() const { return pos_ >= text_.size(); }
  char Peek() const { return pos_ < text_.size() ? text_[pos_] : '\0'; }
  char PeekAt(size_t offset) const {
    return pos_ + offset < text_.size() ? text_[pos_ + offset] : '\0';
  }
  char Next() { return pos_ < text_.size() ? text_[pos_++] : '\0'; }

  size_t pos() const { return pos_; }
  void Seek(size_t pos) { pos_ = pos; }
  /// The text before the cursor, and from the cursor on.
  std::string_view consumed() const { return text_.substr(0, pos_); }
  std::string_view rest() const { return text_.substr(pos_); }

  /// Advances past the longest run of characters satisfying `take` and
  /// returns that run.
  template <typename Pred>
  std::string_view TakeWhile(Pred take) {
    const size_t start = pos_;
    while (pos_ < text_.size() && take(text_[pos_])) ++pos_;
    return text_.substr(start, pos_ - start);
  }

  /// Skips spaces and tabs (the only whitespace inside an N-Triples line).
  void SkipWhitespace() {
    TakeWhile([](char c) { return c == ' ' || c == '\t'; });
  }

  /// A parse error naming the cursor's column within its line.
  Status Error(const std::string& what) const {
    const size_t newline = consumed().rfind('\n');
    const size_t column =
        pos_ - (newline == std::string_view::npos ? 0 : newline + 1) + 1;
    return Status::ParseError(what + " at column " + std::to_string(column));
  }

 private:
  std::string_view text_;
  size_t pos_ = 0;
};

/// The value of hex digit `c`, or -1 when `c` is not one.
inline int HexValue(char c) {
  if (c >= '0' && c <= '9') return c - '0';
  if (c >= 'a' && c <= 'f') return c - 'a' + 10;
  if (c >= 'A' && c <= 'F') return c - 'A' + 10;
  return -1;
}

/// Appends the UTF-8 encoding of `cp` (at most U+10FFFF) to `out`.
inline void AppendUtf8(uint32_t cp, std::string& out) {
  if (cp < 0x80) {
    out += static_cast<char>(cp);
  } else if (cp < 0x800) {
    out += static_cast<char>(0xC0 | (cp >> 6));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else if (cp < 0x10000) {
    out += static_cast<char>(0xE0 | (cp >> 12));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  } else {
    out += static_cast<char>(0xF0 | (cp >> 18));
    out += static_cast<char>(0x80 | ((cp >> 12) & 0x3F));
    out += static_cast<char>(0x80 | ((cp >> 6) & 0x3F));
    out += static_cast<char>(0x80 | (cp & 0x3F));
  }
}

/// Decodes one ECHAR (\t \b \n \r \f \" \' \\) or UCHAR (\uXXXX,
/// \UXXXXXXXX) escape into `out`; the cursor is just past the backslash.
inline Status DecodeEscape(Cursor& cur, std::string& out) {
  static constexpr std::string_view kEchar = "tbnrf\"'\\";
  static constexpr std::string_view kDecoded = "\t\b\n\r\f\"'\\";
  const char kind = cur.Next();
  if (const size_t i = kEchar.find(kind); i != std::string_view::npos) {
    out += kDecoded[i];
    return Status::Ok();
  }
  if (kind != 'u' && kind != 'U') {
    return cur.Error(std::string("unknown escape \\") + kind);
  }
  uint32_t cp = 0;
  for (int i = 0, digits = kind == 'u' ? 4 : 8; i < digits; ++i) {
    const int h = HexValue(cur.Next());
    if (h < 0) return cur.Error("bad \\u escape");
    cp = (cp << 4) | static_cast<uint32_t>(h);
  }
  if (cp > 0x10FFFF) return cur.Error("code point out of range");
  AppendUtf8(cp, out);
  return Status::Ok();
}

/// Appends `run` to `out` in one copy, but grows the capacity step by step
/// as appending one character at a time would. The loader's heap then sees
/// the same allocations as from a per-character lexer; exact-size growth
/// fragmented it (+18 MB peak RSS on a 105k-description corpus resolved
/// under a 64 MiB memory budget).
inline void AppendRun(std::string_view run, std::string& out) {
  while (out.capacity() < out.size() + run.size()) {
    out.reserve(2 * out.capacity());
  }
  out += run;
}

/// True for a character an IRIREF holds as itself: neither its closing
/// '>', an escape, nor a character the grammar forbids there.
inline bool IsPlainIriChar(char c) {
  return static_cast<unsigned char>(c) > 0x20 && c != '>' && c != '\\' &&
         c != '"' && c != '{' && c != '}' && c != '|' && c != '^' && c != '`';
}

/// Lexes `<IRIREF>` and appends the unescaped IRI to `out`. The IRI may be
/// empty: `<>` is legal Turtle, and N-Triples rejects it itself. The escapes
/// are those of a string, so every IRI `EscapeNTriples` writes reads back.
/// Runs of plain characters are appended whole: this loop and the string
/// loop below carry most of the bytes of a corpus load.
inline Status LexIriRef(Cursor& cur, std::string& out) {
  if (cur.Next() != '<') return cur.Error("expected '<'");
  for (;;) {
    AppendRun(cur.TakeWhile(IsPlainIriChar), out);
    if (cur.AtEnd()) return cur.Error("unterminated IRI");
    const char c = cur.Next();
    if (c == '>') return Status::Ok();
    if (c != '\\') return cur.Error("illegal character in IRI");
    MINOAN_RETURN_IF_ERROR(DecodeEscape(cur, out));
  }
}

/// Lexes a single-line string delimited by `quote` (Turtle also allows
/// '\'') and appends its unescaped value to `out`; the cursor is at the
/// opening quote.
inline Status LexQuotedString(Cursor& cur, char quote, std::string& out) {
  cur.Next();  // the opening quote
  for (;;) {
    AppendRun(cur.TakeWhile([quote](char c) {
                return c != quote && c != '\\' && c != '\n';
              }),
              out);
    if (cur.AtEnd()) return cur.Error("unterminated literal");
    const char c = cur.Next();
    if (c == quote) return Status::Ok();
    if (c == '\n') return cur.Error("newline in single-line string");
    MINOAN_RETURN_IF_ERROR(DecodeEscape(cur, out));
  }
}

/// Lexes `@tag` and appends the tag to `out`; the cursor is at '@'.
inline Status LexLangTag(Cursor& cur, std::string& out) {
  cur.Next();  // '@'
  AppendRun(cur.TakeWhile([](char c) {
              return std::isalnum(static_cast<unsigned char>(c)) || c == '-';
            }),
            out);
  if (out.empty()) return cur.Error("empty language tag");
  return Status::Ok();
}

/// PN_CHARS, as far as labels and local names go: a letter, digit, '_',
/// '-' or non-ASCII byte.
inline bool IsPnChar(char c) {
  return std::isalnum(static_cast<unsigned char>(c)) || c == '_' ||
         c == '-' || static_cast<unsigned char>(c) >= 0x80;
}

/// Lexes `_:label` into a blank-node term; the cursor is at '_'. A label
/// never starts with '-'.
inline Status LexBlankNode(Cursor& cur, Term& out) {
  cur.Next();  // '_'
  if (cur.Next() != ':') return cur.Error("expected ':' after '_'");
  if (!IsPnChar(cur.Peek()) || cur.Peek() == '-') {
    return cur.Error("bad blank node label");
  }
  std::string label;
  // An interior '.' is part of the label; a trailing '.' is the statement
  // terminator and must be left unconsumed.
  while (IsPnChar(cur.Peek()) ||
         (cur.Peek() == '.' && IsPnChar(cur.PeekAt(1)))) {
    label += cur.Next();
  }
  out = Term::Blank(std::move(label));
  return Status::Ok();
}

}  // namespace lex
}  // namespace rdf
}  // namespace minoan

#endif  // MINOAN_RDF_TERM_LEXER_H_
