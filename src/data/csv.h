#ifndef HPRL_DATA_CSV_H_
#define HPRL_DATA_CSV_H_

#include <cstdint>
#include <deque>
#include <string>
#include <string_view>
#include <vector>

#include "common/result.h"
#include "data/table.h"

namespace hprl {

/// Writes `table` to `path` as comma-separated values with a header row.
/// Categorical values are written as their labels. Fields containing commas,
/// quotes or newlines are quoted.
Status WriteCsv(const Table& table, const std::string& path);

/// Reads a CSV file produced for the given schema. The header must name
/// exactly the schema's attributes (same order). Unknown categorical labels
/// are an error when `strict_categories` is true, otherwise they are added
/// to a copy of the domain.
///
/// The returned table shares `schema` (strict mode) or a rebuilt schema with
/// extended domains (lenient mode).
Result<Table> ReadCsv(const std::string& path, const SchemaPtr& schema,
                      bool strict_categories = true);

/// Parses one CSV line into fields, honoring double-quote quoting with ""
/// escapes; '\r' outside quotes is dropped. Exposed for tests.
Result<std::vector<std::string>> ParseCsvLine(std::string_view line);

/// Schema-free CSV contents: the header and all rows. Used when column
/// positions must be resolved by name (e.g. the hprl_link tool).
///
/// Each distinct cell value is stored once and rows hold ids into that
/// table, so a file of a few hundred distinct values costs a few hundred
/// strings however many rows it has. `rows` reads like a vector of rows of
/// strings: `rows.size()`, `rows[r].size()`, `rows[r][c]` (a
/// `const std::string&`) and range-for.
struct RawCsv {
  class Rows {
   public:
    /// One row, viewed in place; valid while its RawCsv lives.
    class Row {
     public:
      size_t size() const { return rows_->width_; }
      const std::string& operator[](size_t c) const {
        return rows_->values_[id(c)];
      }
      /// Interned id of cell `c`: two cells of one file hold equal strings
      /// exactly when their ids are equal.
      uint32_t id(size_t c) const { return rows_->ids_[begin_ + c]; }

     private:
      friend class Rows;
      Row(const Rows* rows, size_t begin) : rows_(rows), begin_(begin) {}
      const Rows* rows_;
      size_t begin_;
    };

    class iterator {
     public:
      Row operator*() const { return (*rows_)[r_]; }
      iterator& operator++() {
        ++r_;
        return *this;
      }
      bool operator==(const iterator& o) const { return r_ == o.r_; }

     private:
      friend class Rows;
      iterator(const Rows* rows, size_t r) : rows_(rows), r_(r) {}
      const Rows* rows_;
      size_t r_;
    };

    size_t size() const { return num_rows_; }
    Row operator[](size_t r) const { return Row(this, r * width_); }
    iterator begin() const { return iterator(this, 0); }
    iterator end() const { return iterator(this, num_rows_); }

    /// The distinct cell values; ids index them.
    size_t num_values() const { return values_.size(); }
    const std::string& value(uint32_t id) const { return values_[id]; }

   private:
    friend Result<RawCsv> ReadCsvRaw(const std::string& path);
    // A deque never moves its elements, so the reader's intern table can
    // key on views of them.
    std::deque<std::string> values_;
    std::vector<uint32_t> ids_;  // row-major, width_ per row
    size_t width_ = 0;
    size_t num_rows_ = 0;
  };

  std::vector<std::string> header;
  Rows rows;

  /// Index of a header column, or -1.
  int FindColumn(const std::string& name) const;
};

/// Reads a CSV file whose first line is its header. Every later non-empty
/// line must have as many fields as the header (docs/FORMATS.md gives the
/// dialect).
Result<RawCsv> ReadCsvRaw(const std::string& path);

}  // namespace hprl

#endif  // HPRL_DATA_CSV_H_
