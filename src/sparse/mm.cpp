#include "sparse/mm.hpp"

#include <cinttypes>
#include <cstdio>
#include <fstream>
#include <limits>
#include <sstream>

#include "support/error.hpp"

namespace plin::sparse {
namespace {

std::string fmt_value(double v) {
  char buf[64];
  std::snprintf(buf, sizeof(buf), "%.17g", v);
  return buf;
}

/// First non-comment, non-blank line after the header.
bool next_data_line(std::istream& in, std::string& line) {
  while (std::getline(in, line)) {
    std::size_t start = line.find_first_not_of(" \t\r");
    if (start == std::string::npos) continue;
    if (line[start] == '%') continue;
    return true;
  }
  return false;
}

}  // namespace

void save_matrix_market(const CsrMatrix& a, std::ostream& out) {
  a.validate();
  out << "%%MatrixMarket matrix coordinate real general\n";
  out << "% powerlin CSR export (docs/sparse.md)\n";
  out << a.rows << " " << a.cols << " " << a.nnz() << "\n";
  for (std::size_t r = 0; r < a.rows; ++r) {
    for (std::size_t k = a.row_ptr[r]; k < a.row_ptr[r + 1]; ++k) {
      out << (r + 1) << " " << (a.col_idx[k] + 1) << " "
          << fmt_value(a.values[k]) << "\n";
    }
  }
  PLIN_CHECK_MSG(static_cast<bool>(out), "mtx: write failed");
}

void save_matrix_market(const CsrMatrix& a, const std::string& path) {
  std::ofstream out(path);
  if (!out) throw IoError("mtx: cannot open for writing: " + path);
  save_matrix_market(a, out);
  out.flush();
  if (!out) throw IoError("mtx: write failed: " + path);
}

CsrMatrix load_matrix_market(std::istream& in) {
  std::string line;
  if (!std::getline(in, line)) throw IoError("mtx: empty input");
  std::istringstream header(line);
  std::string banner, object, format, field, symmetry;
  header >> banner >> object >> format >> field >> symmetry;
  if (banner != "%%MatrixMarket" || object != "matrix" ||
      format != "coordinate") {
    throw IoError("mtx: unsupported header: " + line);
  }
  if (field != "real" && field != "integer") {
    throw IoError("mtx: unsupported field (want real|integer): " + field);
  }
  if (symmetry != "general") {
    throw IoError("mtx: unsupported symmetry (want general): " + symmetry);
  }

  if (!next_data_line(in, line)) throw IoError("mtx: missing size line");
  std::uint64_t rows = 0;
  std::uint64_t cols = 0;
  std::uint64_t entries = 0;
  if (std::sscanf(line.c_str(), "%" SCNu64 " %" SCNu64 " %" SCNu64, &rows,
                  &cols, &entries) != 3) {
    throw IoError("mtx: malformed size line: " + line);
  }

  if (cols > std::numeric_limits<std::uint32_t>::max()) {
    throw IoError("mtx: column count exceeds the 32-bit index range: " +
                  line);
  }

  CsrMatrix a = make_empty(rows, cols);
  // Assemble unordered triplets into per-row buckets via a counting pass.
  // The header's entry count is untrusted, so the triplets grow as entries
  // arrive rather than being sized from it.
  std::vector<std::uint64_t> ri;
  std::vector<std::uint64_t> rj;
  std::vector<double> rv;
  for (std::uint64_t e = 0; e < entries; ++e) {
    if (!next_data_line(in, line)) {
      throw IoError("mtx: truncated entry list");
    }
    std::uint64_t i = 0;
    std::uint64_t j = 0;
    double value = 0.0;
    if (std::sscanf(line.c_str(), "%" SCNu64 " %" SCNu64 " %lf", &i, &j,
                    &value) != 3) {
      throw IoError("mtx: malformed entry: " + line);
    }
    if (i < 1 || i > rows || j < 1 || j > cols) {
      throw IoError("mtx: coordinate out of range: " + line);
    }
    ri.push_back(i);
    rj.push_back(j);
    rv.push_back(value);
  }

  std::vector<std::size_t> counts(rows, 0);
  for (const std::uint64_t i : ri) ++counts[i - 1];
  for (std::size_t r = 0; r < rows; ++r) {
    a.row_ptr[r + 1] = a.row_ptr[r] + counts[r];
  }
  a.col_idx.resize(rv.size());
  a.values.resize(rv.size());
  std::vector<std::size_t> cursor(a.row_ptr.begin(), a.row_ptr.end() - 1);
  for (std::size_t e = 0; e < rv.size(); ++e) {
    const std::size_t slot = cursor[ri[e] - 1]++;
    a.col_idx[slot] = static_cast<std::uint32_t>(rj[e] - 1);
    a.values[slot] = rv[e];
  }
  a.normalize();
  a.validate();
  return a;
}

CsrMatrix load_matrix_market(const std::string& path) {
  std::ifstream in(path);
  if (!in) throw IoError("mtx: cannot open: " + path);
  return load_matrix_market(in);
}

}  // namespace plin::sparse
