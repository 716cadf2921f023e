/**
 * @file
 * Coordinate-list (COO) sparse matrix. The assembly format: generators
 * and the Matrix Market reader produce COO, which is then converted to
 * CSR for everything else.
 */

#ifndef UNISTC_SPARSE_COO_HH
#define UNISTC_SPARSE_COO_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace unistc
{

/** One nonzero element. */
struct CooEntry
{
    int row = 0;
    int col = 0;
    double val = 0.0;
};

/** Unordered triplet matrix. Duplicates are summed on normalize(). */
class CooMatrix
{
  public:
    CooMatrix() = default;

    /** Empty matrix of the given shape. */
    CooMatrix(int rows, int cols);

    /** Append one entry (no bounds/duplicate checking until normalize). */
    void add(int row, int col, double val);

    /** Reserve room for @p entries entries. */
    void reserve(std::size_t entries) { entries_.reserve(entries); }

    /**
     * Sort entries row-major, sum duplicates and drop explicit zeros.
     * Afterwards entries() is strictly ordered. Input that already is
     * skips the sort and the merge.
     */
    void normalize();

    /** True when entries() is strictly row-major (so duplicate-free). */
    bool ordered() const;

    /** Abort if any entry is out of bounds. */
    void validate() const;

    int rows() const { return rows_; }
    int cols() const { return cols_; }
    std::int64_t nnz() const
    {
        return static_cast<std::int64_t>(entries_.size());
    }

    const std::vector<CooEntry> &entries() const { return entries_; }
    std::vector<CooEntry> &entries() { return entries_; }

  private:
    int rows_ = 0;
    int cols_ = 0;
    std::vector<CooEntry> entries_;
};

} // namespace unistc

#endif // UNISTC_SPARSE_COO_HH
