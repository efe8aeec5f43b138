#include "util/csv.hpp"

#include <charconv>
#include <stdexcept>

#include "util/assert.hpp"

namespace mnemo::util::csv {

namespace {

[[nodiscard]] bool needs_quote(std::string_view field) {
  return field.find_first_of(",\"\n\r") != std::string_view::npos;
}

}  // namespace

std::string escape(std::string_view field) {
  if (!needs_quote(field)) return std::string(field);
  std::string out;
  out.reserve(field.size() + 2);
  out.push_back('"');
  for (char c : field) {
    if (c == '"') out.push_back('"');
    out.push_back(c);
  }
  out.push_back('"');
  return out;
}

Writer::Writer(const std::string& path) : file_(path), out_(&file_) {
  if (!file_) throw std::runtime_error("csv::Writer: cannot open " + path);
}

Writer::Writer(std::ostream& out) : out_(&out) {}

Writer::~Writer() {
  if (row_open_) end_row();
}

void Writer::write_field(std::string_view v) {
  if (row_open_) out_->put(',');
  if (needs_quote(v)) {
    *out_ << escape(v);
  } else {
    out_->write(v.data(), static_cast<std::streamsize>(v.size()));
  }
  row_open_ = true;
}

template <typename T, typename... Format>
void Writer::write_number(T v, Format... format) {
  // std::to_chars: locale-free and allocation-free. For floating point,
  // chars_format::general at a precision is specified as printf's %.*g,
  // whose output is at most precision + 8 characters.
  char buf[128];
  const std::to_chars_result r =
      std::to_chars(buf, buf + sizeof buf, v, format...);
  MNEMO_ASSERT(r.ec == std::errc{});
  write_field(std::string_view(buf, static_cast<std::size_t>(r.ptr - buf)));
}

Writer& Writer::field(std::string_view v) {
  write_field(v);
  return *this;
}

Writer& Writer::field(double v, int precision) {
  write_number(v, std::chars_format::general, precision);
  return *this;
}

Writer& Writer::field(std::uint64_t v) {
  write_number(v);
  return *this;
}

Writer& Writer::field(std::int64_t v) {
  write_number(v);
  return *this;
}

void Writer::end_row() {
  *out_ << '\n';
  row_open_ = false;
  ++rows_;
}

void Writer::row(const std::vector<std::string>& fields) {
  for (const auto& f : fields) write_field(f);
  end_row();
}

void Writer::row(std::initializer_list<std::string_view> fields) {
  for (auto f : fields) write_field(f);
  end_row();
}

std::vector<std::string> parse_line(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (std::size_t i = 0; i < line.size(); ++i) {
    const char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur.push_back('"');
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur.push_back(c);
      }
    } else if (c == '"') {
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      cur.push_back(c);
    }
  }
  fields.push_back(std::move(cur));
  return fields;
}

std::vector<std::vector<std::string>> read_file(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv::read_file: cannot open " + path);
  std::vector<std::vector<std::string>> rows;
  std::string line;
  while (std::getline(in, line)) {
    if (line.empty()) continue;
    rows.push_back(parse_line(line));
  }
  return rows;
}

std::vector<NumberedRow> read_file_numbered(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw std::runtime_error("csv::read_file: cannot open " + path);
  std::vector<NumberedRow> rows;
  std::string line;
  std::size_t line_no = 0;
  while (std::getline(in, line)) {
    ++line_no;
    if (line.empty()) continue;
    rows.push_back(NumberedRow{line_no, parse_line(line)});
  }
  return rows;
}

}  // namespace mnemo::util::csv
