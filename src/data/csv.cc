#include "data/csv.h"

#include <cstring>
#include <fstream>
#include <memory>
#include <string_view>

#include "common/string_util.h"

namespace hprl {

namespace {

bool NeedsQuoting(const std::string& s) {
  return s.find_first_of(",\"\n\r") != std::string::npos;
}

std::string QuoteField(const std::string& s) {
  if (!NeedsQuoting(s)) return s;
  std::string out = "\"";
  for (char c : s) {
    if (c == '"') out += "\"\"";
    else out += c;
  }
  out += '"';
  return out;
}

}  // namespace

Result<std::vector<std::string>> ParseCsvLine(std::string_view line) {
  std::vector<std::string> fields;
  std::string cur;
  bool in_quotes = false;
  for (size_t i = 0; i < line.size(); ++i) {
    char c = line[i];
    if (in_quotes) {
      if (c == '"') {
        if (i + 1 < line.size() && line[i + 1] == '"') {
          cur += '"';
          ++i;
        } else {
          in_quotes = false;
        }
      } else {
        cur += c;
      }
    } else if (c == '"') {
      if (!cur.empty()) {
        return Status::InvalidArgument("quote inside unquoted CSV field");
      }
      in_quotes = true;
    } else if (c == ',') {
      fields.push_back(std::move(cur));
      cur.clear();
    } else if (c == '\r') {
      // tolerate CRLF
    } else {
      cur += c;
    }
  }
  if (in_quotes) return Status::InvalidArgument("unterminated quote in CSV");
  fields.push_back(std::move(cur));
  return fields;
}

namespace {

// The one CSV tokenizer behind ReadCsv and ReadCsvRaw. It reads the file in
// one go and walks it line by line with getline's rules: lines end at '\n',
// a missing final newline still ends the last line, and a line of zero
// bytes is skipped. Lines without '"' or '\r' are split at commas in
// place; the rest go through ParseCsvLine.
class CsvScanner {
 public:
  /// Reads `path` and parses its first line as the header.
  static Result<CsvScanner> Open(const std::string& path) {
    std::ifstream in(path, std::ios::binary);
    if (!in.is_open()) return Status::IOError("cannot open for read: " + path);
    CsvScanner sc;
    // Size the buffer up front where the file has a length (a pipe has
    // none), then read in chunks.
    if (in.seekg(0, std::ios::end)) {
      sc.buf_.reserve(static_cast<size_t>(in.tellg()));
      in.seekg(0);
    }
    in.clear();
    char chunk[1 << 16];
    while (in.read(chunk, sizeof chunk) || in.gcount() > 0) {
      sc.buf_.append(chunk, static_cast<size_t>(in.gcount()));
    }
    if (sc.buf_.empty()) return Status::IOError("empty CSV: " + path);
    auto header = ParseCsvLine(sc.NextLine());
    if (!header.ok()) return header.status();
    sc.header = std::move(header).value();
    return sc;
  }

  /// Calls `on_row(line_no, fields)` for each non-blank line after the
  /// header, stopping at the first error. `fields` is valid only during
  /// the call.
  template <typename OnRow>
  Status ForEachRow(OnRow&& on_row) {
    std::vector<std::string_view> fields;
    std::vector<std::string> unquoted;
    for (int64_t line_no = 2; pos_ < buf_.size(); ++line_no) {
      std::string_view line = NextLine();
      if (line.empty()) continue;
      fields.clear();
      if (line.find('"') == std::string_view::npos &&
          line.find('\r') == std::string_view::npos) {
        for (size_t at = 0;;) {
          size_t comma = line.find(',', at);
          if (comma == std::string_view::npos) {
            fields.push_back(line.substr(at));
            break;
          }
          fields.push_back(line.substr(at, comma - at));
          at = comma + 1;
        }
      } else {
        auto parsed = ParseCsvLine(line);
        if (!parsed.ok()) return parsed.status();
        unquoted = std::move(parsed).value();
        fields.assign(unquoted.begin(), unquoted.end());
      }
      HPRL_RETURN_IF_ERROR(on_row(line_no, fields));
    }
    return Status::OK();
  }

  std::vector<std::string> header;

 private:
  std::string_view NextLine() {
    size_t end = buf_.find('\n', pos_);
    if (end == std::string::npos) end = buf_.size();
    std::string_view line(buf_.data() + pos_, end - pos_);
    pos_ = end + 1;
    return line;
  }

  std::string buf_;
  size_t pos_ = 0;
};

}  // namespace

Status WriteCsv(const Table& table, const std::string& path) {
  std::ofstream out(path);
  if (!out.is_open()) return Status::IOError("cannot open for write: " + path);
  const Schema& schema = *table.schema();
  for (int i = 0; i < schema.num_attributes(); ++i) {
    if (i > 0) out << ',';
    out << QuoteField(schema.attribute(i).name);
  }
  out << '\n';
  for (int64_t r = 0; r < table.num_rows(); ++r) {
    for (int i = 0; i < schema.num_attributes(); ++i) {
      if (i > 0) out << ',';
      out << QuoteField(schema.RenderValue(i, table.at(r, i)));
    }
    out << '\n';
  }
  if (!out.good()) return Status::IOError("write failed: " + path);
  return Status::OK();
}

Result<Table> ReadCsv(const std::string& path, const SchemaPtr& schema,
                      bool strict_categories) {
  auto scanner = CsvScanner::Open(path);
  if (!scanner.ok()) return scanner.status();
  const std::vector<std::string>& header = scanner->header;
  if (static_cast<int>(header.size()) != schema->num_attributes()) {
    return Status::InvalidArgument(
        StrFormat("CSV has %zu columns, schema expects %d", header.size(),
                  schema->num_attributes()));
  }
  for (int i = 0; i < schema->num_attributes(); ++i) {
    if (header[i] != schema->attribute(i).name) {
      return Status::InvalidArgument("CSV header mismatch at column " +
                                     header[i]);
    }
  }

  // In lenient mode, domains may grow; build mutable copies up front and a
  // new schema at the end.
  std::vector<std::shared_ptr<CategoryDomain>> mutable_domains(
      schema->num_attributes());
  if (!strict_categories) {
    for (int i = 0; i < schema->num_attributes(); ++i) {
      const AttributeDef& a = schema->attribute(i);
      if (a.type == AttrType::kCategorical) {
        mutable_domains[i] =
            std::make_shared<CategoryDomain>(a.domain->labels());
      }
    }
  }

  std::vector<Record> rows;
  auto on_row = [&](int64_t line_no,
                    const std::vector<std::string_view>& fields) -> Status {
    if (static_cast<int>(fields.size()) != schema->num_attributes()) {
      return Status::InvalidArgument(
          StrFormat("line %lld: %zu fields, expected %d",
                    static_cast<long long>(line_no), fields.size(),
                    schema->num_attributes()));
    }
    Record row(schema->num_attributes());
    for (int i = 0; i < schema->num_attributes(); ++i) {
      const AttributeDef& a = schema->attribute(i);
      const std::string f(fields[i]);
      if (f == "?" || f.empty()) {
        row[i] = Value::Null();
        continue;
      }
      switch (a.type) {
        case AttrType::kNumeric: {
          auto v = ParseDouble(f);
          if (!v.ok()) {
            return Status::InvalidArgument(
                StrFormat("line %lld: bad numeric '%s' for %s",
                          static_cast<long long>(line_no), f.c_str(),
                          a.name.c_str()));
          }
          row[i] = Value::Numeric(*v);
          break;
        }
        case AttrType::kCategorical: {
          int32_t id;
          if (strict_categories) {
            id = a.domain->Find(f);
            if (id < 0) {
              return Status::NotFound(
                  StrFormat("line %lld: unknown category '%s' for %s",
                            static_cast<long long>(line_no), f.c_str(),
                            a.name.c_str()));
            }
          } else {
            id = mutable_domains[i]->GetOrAdd(f);
          }
          row[i] = Value::Category(id);
          break;
        }
        case AttrType::kText:
          row[i] = Value::Text(f);
          break;
      }
    }
    rows.push_back(std::move(row));
    return Status::OK();
  };
  HPRL_RETURN_IF_ERROR(scanner->ForEachRow(on_row));

  SchemaPtr out_schema = schema;
  if (!strict_categories) {
    auto rebuilt = std::make_shared<Schema>();
    for (int i = 0; i < schema->num_attributes(); ++i) {
      const AttributeDef& a = schema->attribute(i);
      switch (a.type) {
        case AttrType::kNumeric:
          rebuilt->AddNumeric(a.name);
          break;
        case AttrType::kCategorical:
          rebuilt->AddCategorical(a.name, mutable_domains[i]);
          break;
        case AttrType::kText:
          rebuilt->AddText(a.name);
          break;
      }
    }
    out_schema = rebuilt;
  }
  Table table(out_schema);
  table.Reserve(static_cast<int64_t>(rows.size()));
  for (auto& r : rows) table.AppendUnchecked(std::move(r));
  return table;
}

int RawCsv::FindColumn(const std::string& name) const {
  for (size_t i = 0; i < header.size(); ++i) {
    if (header[i] == name) return static_cast<int>(i);
  }
  return -1;
}

namespace {

uint64_t Mix(uint64_t h) {
  h *= 0x9E3779B97F4A7C15ULL;
  return h ^ (h >> 32);
}

/// A hash of one CSV cell from fixed-width loads (overlapping at the ends),
/// which compile to plain moves where a variable-length copy would not.
/// Every byte counts, so a column of long keys does not collide.
uint64_t HashCell(std::string_view s) {
  const char* p = s.data();
  const size_t n = s.size();
  auto load64 = [](const char* at) {
    uint64_t w;
    std::memcpy(&w, at, sizeof w);
    return w;
  };
  auto load32 = [](const char* at) {
    uint32_t w;
    std::memcpy(&w, at, sizeof w);
    return uint64_t{w};
  };
  uint64_t h = n;
  if (n >= 8) {
    for (size_t at = 0; at + 8 < n; at += 8) h = Mix(h ^ load64(p + at));
    h = Mix(h ^ load64(p + n - 8));
  } else if (n >= 4) {
    h = Mix(h ^ load32(p) ^ (load32(p + n - 4) << 32));
  } else if (n > 0) {
    auto byte = [&](size_t at) { return uint64_t{static_cast<uint8_t>(p[at])}; };
    h = Mix(h ^ byte(0) ^ (byte(n / 2) << 8) ^ (byte(n - 1) << 16));
  }
  return h;
}

/// The file's intern table: open addressing with linear probing over views
/// of the stored values, so a hit costs one hash and one compare.
class CellInterner {
 public:
  static constexpr uint32_t kMissing = UINT32_MAX;

  /// The id stored for `cell` (hashing to `hash`), or kMissing.
  uint32_t Find(std::string_view cell, uint64_t hash) const {
    if (slots_.empty()) return kMissing;
    for (size_t i = hash & mask_;; i = (i + 1) & mask_) {
      const Slot& s = slots_[i];
      if (s.id == kMissing) return kMissing;
      if (s.hash == hash && s.cell == cell) return s.id;
    }
  }

  /// Adds `cell` (not present; it must outlive the table) as `id`.
  void Insert(std::string_view cell, uint64_t hash, uint32_t id) {
    if (2 * (size_ + 1) > slots_.size()) Grow();
    Place({cell, hash, id});
    ++size_;
  }

 private:
  struct Slot {
    std::string_view cell;
    uint64_t hash = 0;
    uint32_t id = kMissing;
  };

  void Place(const Slot& slot) {
    size_t i = slot.hash & mask_;
    while (slots_[i].id != kMissing) i = (i + 1) & mask_;
    slots_[i] = slot;
  }

  void Grow() {
    std::vector<Slot> old = std::move(slots_);
    slots_.assign(old.empty() ? 16 : 2 * old.size(), Slot{});
    mask_ = slots_.size() - 1;
    for (const Slot& s : old) {
      if (s.id != kMissing) Place(s);
    }
  }

  std::vector<Slot> slots_;
  size_t mask_ = 0;
  size_t size_ = 0;
};

}  // namespace

Result<RawCsv> ReadCsvRaw(const std::string& path) {
  auto scanner = CsvScanner::Open(path);
  if (!scanner.ok()) return scanner.status();
  RawCsv out;
  out.header = std::move(scanner->header);
  RawCsv::Rows& rows = out.rows;
  rows.width_ = out.header.size();
  CellInterner ids;
  auto on_row = [&](int64_t line_no,
                    const std::vector<std::string_view>& fields) -> Status {
    if (fields.size() != rows.width_) {
      return Status::InvalidArgument(
          StrFormat("line %lld: %zu fields, header has %zu",
                    static_cast<long long>(line_no), fields.size(),
                    rows.width_));
    }
    for (std::string_view f : fields) {
      const uint64_t hash = HashCell(f);
      uint32_t id = ids.Find(f, hash);
      if (id == CellInterner::kMissing) {
        if (rows.values_.size() == UINT32_MAX) {
          return Status::OutOfRange("too many distinct CSV values: " + path);
        }
        id = static_cast<uint32_t>(rows.values_.size());
        // Key on the stored copy: `f` may view the scanner's scratch line.
        ids.Insert(rows.values_.emplace_back(f), hash, id);
      }
      rows.ids_.push_back(id);
    }
    ++rows.num_rows_;
    return Status::OK();
  };
  HPRL_RETURN_IF_ERROR(scanner->ForEachRow(on_row));
  return out;
}

}  // namespace hprl
