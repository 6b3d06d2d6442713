#include "wrapper/html_parser.h"

#include <algorithm>
#include <cctype>
#include <string_view>

#include "util/strings.h"

namespace dart::wrap {

namespace {

struct Tag {
  std::string name;                                      // lower-cased
  std::vector<std::pair<std::string, std::string>> attrs;  // lower-cased keys
  bool closing = false;
  bool self_closing = false;

  const std::string* Attr(const std::string& key) const {
    for (const auto& [k, v] : attrs) {
      if (k == key) return &v;
    }
    return nullptr;
  }
};

/// Parses a tag starting at `pos` (which points at '<'); advances `pos` past
/// the closing '>'. Returns false for a malformed fragment (treated as text).
bool ParseTag(const std::string& html, size_t* pos, Tag* tag) {
  size_t i = *pos + 1;
  if (i >= html.size()) return false;
  // Comments: <!-- ... -->
  if (html.compare(i, 3, "!--") == 0) {
    size_t end = html.find("-->", i + 3);
    *pos = end == std::string::npos ? html.size() : end + 3;
    tag->name = "!comment";
    return true;
  }
  // Doctype and processing instructions: skip to '>'.
  if (html[i] == '!' || html[i] == '?') {
    size_t end = html.find('>', i);
    *pos = end == std::string::npos ? html.size() : end + 1;
    tag->name = "!doctype";
    return true;
  }
  tag->closing = html[i] == '/';
  if (tag->closing) ++i;
  size_t name_start = i;
  while (i < html.size() &&
         (std::isalnum(static_cast<unsigned char>(html[i])) ||
          html[i] == '-' || html[i] == ':')) {
    ++i;
  }
  if (i == name_start) return false;
  tag->name = ToLower(html.substr(name_start, i - name_start));
  // Attributes.
  while (i < html.size() && html[i] != '>') {
    if (html[i] == '/' && i + 1 < html.size() && html[i + 1] == '>') {
      tag->self_closing = true;
      i += 2;
      *pos = i;
      return true;
    }
    // A '/' not closing the tag is skipped like whitespace (as HTML5 does);
    // left in place it would end every key empty and stall the loop.
    if (html[i] == '/' ||
        std::isspace(static_cast<unsigned char>(html[i]))) {
      ++i;
      continue;
    }
    size_t key_start = i;
    while (i < html.size() && html[i] != '=' && html[i] != '>' &&
           html[i] != '/' &&
           !std::isspace(static_cast<unsigned char>(html[i]))) {
      ++i;
    }
    std::string key = ToLower(html.substr(key_start, i - key_start));
    std::string value;
    while (i < html.size() &&
           std::isspace(static_cast<unsigned char>(html[i]))) {
      ++i;
    }
    if (i < html.size() && html[i] == '=') {
      ++i;
      while (i < html.size() &&
             std::isspace(static_cast<unsigned char>(html[i]))) {
        ++i;
      }
      if (i < html.size() && (html[i] == '"' || html[i] == '\'')) {
        const char quote = html[i++];
        size_t value_start = i;
        while (i < html.size() && html[i] != quote) ++i;
        value = html.substr(value_start, i - value_start);
        if (i < html.size()) ++i;
      } else {
        size_t value_start = i;
        while (i < html.size() && html[i] != '>' &&
               !std::isspace(static_cast<unsigned char>(html[i]))) {
          ++i;
        }
        value = html.substr(value_start, i - value_start);
      }
    }
    if (!key.empty()) tag->attrs.emplace_back(std::move(key), std::move(value));
  }
  if (i < html.size()) ++i;  // '>'
  *pos = i;
  return true;
}

int SpanAttr(const Tag& tag, const std::string& key) {
  const std::string* value = tag.Attr(key);
  if (value == nullptr) return 1;
  std::string t = Trim(*value);
  if (!IsIntegerLiteral(t)) return 1;
  const long span = std::strtol(t.c_str(), nullptr, 10);
  return span >= 1 && span <= 1000 ? static_cast<int>(span) : 1;
}

/// Builder for one open <table>.
struct TableBuilder {
  HtmlTable table;
  bool row_open = false;
  bool cell_open = false;

  void OpenRow() {
    CloseCell();
    table.rows.emplace_back();
    row_open = true;
  }
  void CloseRow() {
    CloseCell();
    row_open = false;
  }
  void OpenCell(const Tag& tag) {
    if (!row_open) OpenRow();
    CloseCell();
    HtmlCell cell;
    cell.rowspan = SpanAttr(tag, "rowspan");
    cell.colspan = SpanAttr(tag, "colspan");
    cell.header = tag.name == "th";
    table.rows.back().push_back(std::move(cell));
    cell_open = true;
  }
  void CloseCell() {
    if (cell_open) {
      HtmlCell& cell = table.rows.back().back();
      cell.text = Trim(cell.text);
      cell_open = false;
    }
  }
  void AppendText(const std::string& text) {
    if (cell_open && !table.rows.empty() && !table.rows.back().empty()) {
      table.rows.back().back().text += text;
    }
  }
};

/// First case-insensitive occurrence of `needle` (lower-case) in `haystack`
/// at or after `from`, or npos. Searches in place, without copying the
/// document, so skipping many <script> elements stays linear.
size_t FindIgnoreCase(const std::string& haystack, std::string_view needle,
                      size_t from) {
  if (from > haystack.size()) return std::string::npos;
  auto lower_equal = [](char a, char b) {
    return std::tolower(static_cast<unsigned char>(a)) == b;
  };
  auto it = std::search(haystack.begin() + from, haystack.end(),
                        needle.begin(), needle.end(), lower_equal);
  return it == haystack.end() ? std::string::npos : it - haystack.begin();
}

}  // namespace

Result<std::vector<HtmlTable>> ParseHtmlTables(const std::string& html) {
  std::vector<HtmlTable> out;
  std::vector<TableBuilder> stack;
  size_t pos = 0;
  while (pos < html.size()) {
    if (html[pos] == '<') {
      const size_t tag_start = pos;
      Tag tag;
      if (!ParseTag(html, &pos, &tag)) {
        // Malformed '<': treat as literal text.
        if (!stack.empty()) stack.back().AppendText("<");
        pos = tag_start + 1;
        continue;
      }
      if (tag.name == "!comment" || tag.name == "!doctype") continue;
      if (tag.name == "script" || tag.name == "style") {
        if (!tag.closing && !tag.self_closing) {
          const std::string closer = "</" + tag.name;
          size_t end = FindIgnoreCase(html, closer, pos);
          if (end == std::string::npos) break;
          pos = html.find('>', end);
          pos = pos == std::string::npos ? html.size() : pos + 1;
        }
        continue;
      }
      if (tag.name == "table") {
        if (!tag.closing) {
          stack.emplace_back();
        } else if (!stack.empty()) {
          stack.back().CloseRow();
          out.push_back(std::move(stack.back().table));
          stack.pop_back();
        }
        continue;
      }
      if (stack.empty()) continue;  // markup outside any table
      TableBuilder& builder = stack.back();
      if (tag.name == "tr") {
        if (!tag.closing) builder.OpenRow();
        else builder.CloseRow();
      } else if (tag.name == "td" || tag.name == "th") {
        if (!tag.closing) builder.OpenCell(tag);
        else builder.CloseCell();
      } else if (tag.name == "br") {
        builder.AppendText("\n");
      }
      // All other tags are presentation markup: dropped, text kept.
      continue;
    }
    size_t next = html.find('<', pos);
    if (next == std::string::npos) next = html.size();
    if (!stack.empty()) {
      stack.back().AppendText(DecodeEntities(html.substr(pos, next - pos)));
    }
    pos = next;
  }
  // Unclosed tables at EOF are still returned (tolerant parsing).
  while (!stack.empty()) {
    stack.back().CloseRow();
    out.push_back(std::move(stack.back().table));
    stack.pop_back();
  }
  return out;
}

std::string DecodeEntities(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  size_t i = 0;
  while (i < text.size()) {
    if (text[i] != '&') {
      out += text[i++];
      continue;
    }
    size_t semi = text.find(';', i + 1);
    if (semi == std::string::npos || semi - i > 10) {
      out += text[i++];
      continue;
    }
    const std::string entity = text.substr(i + 1, semi - i - 1);
    if (entity == "amp") out += '&';
    else if (entity == "lt") out += '<';
    else if (entity == "gt") out += '>';
    else if (entity == "quot") out += '"';
    else if (entity == "apos") out += '\'';
    else if (entity == "nbsp") out += ' ';
    else if (!entity.empty() && entity[0] == '#') {
      long code = 0;
      if (entity.size() > 2 && (entity[1] == 'x' || entity[1] == 'X')) {
        code = std::strtol(entity.c_str() + 2, nullptr, 16);
      } else {
        code = std::strtol(entity.c_str() + 1, nullptr, 10);
      }
      if (code == 39 || (code >= 32 && code < 127)) {
        out += static_cast<char>(code);
      } else {
        out += '?';  // non-ASCII: not needed by DART's corpora
      }
    } else {
      out += text.substr(i, semi - i + 1);  // unknown entity: keep verbatim
    }
    i = semi + 1;
  }
  return out;
}

std::string EscapeHtml(const std::string& text) {
  std::string out;
  out.reserve(text.size());
  for (char c : text) {
    switch (c) {
      case '&': out += "&amp;"; break;
      case '<': out += "&lt;"; break;
      case '>': out += "&gt;"; break;
      case '"': out += "&quot;"; break;
      case '\'': out += "&#39;"; break;
      default: out += c;
    }
  }
  return out;
}

}  // namespace dart::wrap
