#include "sparse/coo.hh"

#include <algorithm>

#include "common/logging.hh"

namespace unistc
{

CooMatrix::CooMatrix(int rows, int cols) : rows_(rows), cols_(cols)
{
    UNISTC_ASSERT(rows >= 0 && cols >= 0, "negative matrix shape");
}

void
CooMatrix::add(int row, int col, double val)
{
    entries_.push_back({row, col, val});
}

void
CooMatrix::normalize()
{
    validate();
    // Generators emit row-major entries; only other input pays for the
    // sort and the merge.
    if (!ordered()) {
        std::sort(entries_.begin(), entries_.end(),
                  [](const CooEntry &a, const CooEntry &b) {
                      if (a.row != b.row)
                          return a.row < b.row;
                      return a.col < b.col;
                  });
        std::vector<CooEntry> merged;
        merged.reserve(entries_.size());
        for (const auto &e : entries_) {
            if (!merged.empty() && merged.back().row == e.row &&
                merged.back().col == e.col) {
                merged.back().val += e.val;
            } else {
                merged.push_back(e);
            }
        }
        entries_ = std::move(merged);
    }
    // Drop explicit zeros produced by cancellation or by generators.
    std::erase_if(entries_, [](const CooEntry &e) { return e.val == 0.0; });
}

bool
CooMatrix::ordered() const
{
    return std::adjacent_find(entries_.begin(), entries_.end(),
                              [](const CooEntry &a, const CooEntry &b) {
                                  return a.row != b.row ? a.row > b.row
                                                        : a.col >= b.col;
                              }) == entries_.end();
}

void
CooMatrix::validate() const
{
    for (const auto &e : entries_) {
        UNISTC_ASSERT(e.row >= 0 && e.row < rows_ &&
                      e.col >= 0 && e.col < cols_,
                      "COO entry (", e.row, ",", e.col,
                      ") out of bounds for ", rows_, "x", cols_);
    }
}

} // namespace unistc
