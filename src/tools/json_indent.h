// Schema-free JSON indenter for the operator CLIs. idba_stat's default
// report is the STATS document run through it, so the readable view has no
// field list of its own and shows every field the JSON carries.

#pragma once

#include <string>

namespace idba {
namespace tools {

/// Re-indents compact JSON: one member or element per line, two spaces per
/// nesting level, "key": value. Empty objects and arrays stay on one line;
/// string contents (escapes included) pass through untouched.
inline std::string IndentJson(const std::string& json) {
  std::string out;
  int depth = 0;
  bool in_string = false;
  auto newline = [&] {
    out += '\n';
    out.append(2 * static_cast<size_t>(depth), ' ');
  };
  for (size_t i = 0; i < json.size(); ++i) {
    const char c = json[i];
    if (in_string) {
      out += c;
      if (c == '\\' && i + 1 < json.size()) {
        out += json[++i];
      } else if (c == '"') {
        in_string = false;
      }
      continue;
    }
    switch (c) {
      case '"':
        in_string = true;
        out += c;
        break;
      case '{':
      case '[':
        out += c;
        if (i + 1 < json.size() && (json[i + 1] == '}' || json[i + 1] == ']')) {
          out += json[++i];
        } else {
          ++depth;
          newline();
        }
        break;
      case '}':
      case ']':
        --depth;
        newline();
        out += c;
        break;
      case ',':
        out += c;
        newline();
        break;
      case ':':
        out += ": ";
        break;
      default:
        out += c;
    }
  }
  out += '\n';
  return out;
}

}  // namespace tools
}  // namespace idba
