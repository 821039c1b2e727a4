// The one JSON text emitter.  Every document adacheck writes — sweep
// reports and JSONL cell streams, campaign reports and cache metadata,
// serve protocol lines, canonical JSON, adacheck-stats-v1 and trace
// files — spells strings and numbers here, one way:
//
//   - strings: minimal escaping (\" \\ \n \t \r, every other byte below
//     0x20 as \u00XX, NUL included); DEL and UTF-8 pass through verbatim;
//   - doubles: shortest round-trip std::to_chars, non-finite as null.
//
// JsonWriter streams one document into a caller-owned std::string in
// the caller's key order.  Two layouts: kPretty (two-space indent,
// "key": value) and kCompact (no whitespace at all, one JSONL line).
// It lives in obs, the bottom layer, because obs's own stats and trace
// encoders use it too.
#pragma once

#include <charconv>
#include <concepts>
#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace adacheck::obs {

/// Appends `text` as a JSON string literal, quotes included.
void append_json_string(std::string& out, std::string_view text);

enum class JsonStyle { kPretty, kCompact };

class JsonWriter {
 public:
  explicit JsonWriter(std::string& out, JsonStyle style = JsonStyle::kPretty)
      : out_(out), compact_(style == JsonStyle::kCompact) {}

  void key(std::string_view name) {
    element_prefix();
    append_json_string(out_, name);
    out_ += compact_ ? ":" : ": ";
    pending_key_ = true;
  }

  void begin_object() { open('{'); }
  void end_object() { close('}'); }
  void begin_array() { open('['); }
  void end_array() { close(']'); }

  void value(std::string_view s) {
    element_start();
    append_json_string(out_, s);
  }
  /// A string literal would otherwise convert to bool, which beats the
  /// user-defined conversion to string_view.
  void value(const char* s) { value(std::string_view(s)); }
  /// Shortest round-trip form; NaN and infinities as null.
  void value(double v);
  void value(bool b) {
    element_start();
    out_ += b ? "true" : "false";
  }
  // One template for all integer widths: distinct exact overloads
  // would be ambiguous for std::size_t on platforms where it matches
  // neither uint64_t nor long long exactly.  bool prefers the
  // non-template overload above.
  void value(std::integral auto v) {
    element_start();
    char buf[24];
    const auto res = std::to_chars(buf, buf + sizeof buf, v);
    out_.append(buf, res.ptr);
  }

  /// Splices pre-encoded JSON verbatim as one value — for embedding a
  /// document produced elsewhere (e.g. an obs stats snapshot inside a
  /// protocol response line).  The caller owns its validity.
  void raw_value(std::string_view json) {
    element_start();
    out_ += json;
  }

  template <class T>
  void kv(std::string_view name, const T& v) {
    key(name);
    value(v);
  }

 private:
  void open(char bracket) {
    element_start();
    out_ += bracket;
    first_.push_back(true);
  }
  void close(char bracket) {
    const bool was_empty = first_.back();
    first_.pop_back();
    if (!was_empty) newline_indent();
    out_ += bracket;
  }
  void element_start() {
    if (pending_key_) {
      pending_key_ = false;
      return;
    }
    element_prefix();
  }
  void element_prefix() {
    if (first_.empty()) return;  // document root
    if (!first_.back()) out_ += ',';
    first_.back() = false;
    newline_indent();
  }
  void newline_indent() {
    if (compact_) return;
    out_ += '\n';
    out_.append(2 * first_.size(), ' ');
  }

  std::string& out_;
  std::vector<bool> first_;
  bool pending_key_ = false;
  bool compact_ = false;
};

}  // namespace adacheck::obs
