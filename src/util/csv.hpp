#pragma once

#include <fstream>
#include <initializer_list>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

namespace mnemo::util::csv {

/// Minimal RFC-4180-ish CSV writer. Fields containing commas, quotes or
/// newlines are quoted; embedded quotes are doubled. Mnemo's primary output
/// artifact (the key/performance/cost table of Section IV) is written
/// through this.
class Writer {
 public:
  /// Opens `path` for writing (truncating). Throws std::runtime_error if
  /// the file cannot be opened.
  explicit Writer(const std::string& path);

  /// Write into an arbitrary stream (used by tests and stdout reports).
  explicit Writer(std::ostream& out);

  ~Writer();

  Writer(const Writer&) = delete;
  Writer& operator=(const Writer&) = delete;

  /// Write one row of pre-rendered fields.
  void row(const std::vector<std::string>& fields);
  void row(std::initializer_list<std::string_view> fields);

  /// Incremental row building: field(...) repeatedly, then end_row().
  Writer& field(std::string_view v);
  /// Rendered exactly as printf's "%.*g" (precision at most 120).
  Writer& field(double v, int precision = 6);
  Writer& field(std::uint64_t v);
  Writer& field(std::int64_t v);
  void end_row();

  [[nodiscard]] std::size_t rows_written() const { return rows_; }

 private:
  void write_field(std::string_view v);
  template <typename T, typename... Format>
  void write_number(T v, Format... format);

  std::ofstream file_;
  std::ostream* out_;
  std::size_t rows_ = 0;
  bool row_open_ = false;
};

/// Parse one CSV line into fields (handles quoting).
std::vector<std::string> parse_line(std::string_view line);

/// Read an entire CSV file into rows of fields. Throws std::runtime_error
/// if the file cannot be opened.
std::vector<std::vector<std::string>> read_file(const std::string& path);

/// A parsed row together with the 1-based line it came from. Blank lines
/// are skipped, so row index and file line diverge — parse diagnostics
/// must report the latter.
struct NumberedRow {
  std::size_t line = 0;
  std::vector<std::string> fields;
};

/// read_file with line provenance, for loaders that emit file:line parse
/// errors. Same open/skip semantics as read_file.
std::vector<NumberedRow> read_file_numbered(const std::string& path);

/// Escape a single field per RFC 4180 (quote iff needed).
std::string escape(std::string_view field);

}  // namespace mnemo::util::csv
