#include "obs/json_writer.hpp"

#include <cmath>
#include <cstdio>

namespace adacheck::obs {

void append_json_string(std::string& out, std::string_view text) {
  out += '"';
  std::size_t verbatim = 0;  // start of the pending unescaped run
  for (std::size_t i = 0; i < text.size(); ++i) {
    const auto c = static_cast<unsigned char>(text[i]);
    if (c >= 0x20 && c != '"' && c != '\\') continue;
    out.append(text.data() + verbatim, i - verbatim);
    verbatim = i + 1;
    switch (c) {
      case '"': out += "\\\""; break;
      case '\\': out += "\\\\"; break;
      case '\n': out += "\\n"; break;
      case '\t': out += "\\t"; break;
      case '\r': out += "\\r"; break;
      default: {
        char buf[8];
        std::snprintf(buf, sizeof buf, "\\u%04x", static_cast<unsigned>(c));
        out += buf;
      }
    }
  }
  out.append(text.data() + verbatim, text.size() - verbatim);
  out += '"';
}

void JsonWriter::value(double v) {
  element_start();
  if (!std::isfinite(v)) {
    out_ += "null";
    return;
  }
  char buf[32];
  const auto res = std::to_chars(buf, buf + sizeof buf, v);
  out_.append(buf, res.ptr);
}

}  // namespace adacheck::obs
