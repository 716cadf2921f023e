#include "bbc/bbc_matrix.hh"

#include <algorithm>

#include "common/bitops.hh"
#include "common/logging.hh"
#include "sparse/convert.hh"

namespace unistc
{

BbcMatrix
BbcMatrix::fromCsr(const CsrMatrix &csr)
{
    BbcMatrix out;
    out.rows_ = csr.rows();
    out.cols_ = csr.cols();
    out.blockRows_ =
        static_cast<int>(ceilDiv(csr.rows(), kBlockSize));
    out.blockCols_ =
        static_cast<int>(ceilDiv(csr.cols(), kBlockSize));

    // One block row at a time, in two passes over its CSR rows. The
    // first builds each touched block column's pattern, from which the
    // block's bitmaps and value offsets follow; the second writes each
    // value straight to its slot: block base + tile offset + the
    // element's rank inside its tile. Patterns live in per-block-column
    // slots reset via the touched list, so no per-row map is needed.
    std::vector<BlockPattern> pattern(out.blockCols_);
    std::vector<std::int64_t> block_of(out.blockCols_, -1);
    std::vector<int> touched;
    const auto &row_ptr = csr.rowPtr();
    const auto &col_idx = csr.colIdx();
    const auto &csr_vals = csr.vals();

    out.rowPtr_.assign(out.blockRows_ + 1, 0);
    out.vals_.reserve(static_cast<std::size_t>(csr.nnz()));
    for (int br = 0; br < out.blockRows_; ++br) {
        touched.clear();
        const int r_begin = br * kBlockSize;
        const int r_end = std::min(r_begin + kBlockSize, csr.rows());
        for (int r = r_begin; r < r_end; ++r) {
            const int lr = r - r_begin;
            for (std::int64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
                const int c = col_idx[i];
                const int bc = c / kBlockSize;
                if (block_of[bc] < 0) {
                    block_of[bc] = 0; // touched; numbered below
                    touched.push_back(bc);
                }
                pattern[bc].set(lr, c % kBlockSize);
            }
        }
        std::sort(touched.begin(), touched.end());

        // Emit the index arrays in block-column order. Values go
        // tile-by-tile (row-major tile order) and row-major inside
        // each tile, matching ValPtr_Lv2.
        out.rowPtr_[br + 1] = out.rowPtr_[br] +
            static_cast<std::int64_t>(touched.size());
        std::int64_t values = static_cast<std::int64_t>(out.vals_.size());
        for (const int bc : touched) {
            const BlockPattern &pat = pattern[bc];
            block_of[bc] = static_cast<std::int64_t>(out.colIdx_.size());
            out.colIdx_.push_back(bc);
            const std::uint16_t lv1 = pat.tileBitmap();
            out.lv1_.push_back(lv1);
            out.tileBase_.push_back(
                static_cast<std::int64_t>(out.lv2_.size()));
            out.valPtrLv1_.push_back(values);
            int block_offset = 0;
            forEachSetBit(lv1, [&](int tile_bit) {
                const std::uint16_t lv2 =
                    pat.tilePattern(tile_bit / kTilesPerEdge,
                                    tile_bit % kTilesPerEdge);
                out.lv2_.push_back(lv2);
                out.valPtrLv2_.push_back(
                    static_cast<std::uint8_t>(block_offset));
                block_offset += popcount16(lv2);
            });
            values += block_offset;
        }
        out.vals_.resize(static_cast<std::size_t>(values));

        for (int r = r_begin; r < r_end; ++r) {
            const int lr = r - r_begin;
            const int tile_row = (lr / kTileSize) * kTilesPerEdge;
            const int elem_row = (lr % kTileSize) * kTileSize;
            for (std::int64_t i = row_ptr[r]; i < row_ptr[r + 1]; ++i) {
                const int c = col_idx[i];
                const std::int64_t blk = block_of[c / kBlockSize];
                const int lc = c % kBlockSize;
                const int tile_bit = tile_row + lc / kTileSize;
                const std::int64_t tile =
                    out.tileBase_[blk] + bitRank(out.lv1_[blk], tile_bit);
                const int elem_bit = elem_row + lc % kTileSize;
                out.vals_[out.valPtrLv1_[blk] + out.valPtrLv2_[tile] +
                          bitRank(out.lv2_[tile], elem_bit)] =
                    csr_vals[i];
            }
        }

        for (const int bc : touched) {
            pattern[bc] = BlockPattern();
            block_of[bc] = -1;
        }
    }
    out.validate();
    return out;
}

CsrMatrix
BbcMatrix::toCsr() const
{
    // Walk each block row once per element row: its blocks are in
    // ascending column order, so the entries come out row-major and no
    // sort is needed. Explicit zeros are dropped, as cooToCsr does.
    std::vector<std::int64_t> row_ptr(rows_ + 1, 0);
    std::vector<int> col_idx;
    std::vector<double> vals;
    col_idx.reserve(vals_.size());
    vals.reserve(vals_.size());
    for (int br = 0; br < blockRows_; ++br) {
        const int r_begin = br * kBlockSize;
        const int r_end = std::min(r_begin + kBlockSize, rows_);
        for (int r = r_begin; r < r_end; ++r) {
            const int lr = r - r_begin;
            const int tile_shift = (lr / kTileSize) * kTilesPerEdge;
            const int elem_shift = (lr % kTileSize) * kTileSize;
            for (std::int64_t blk = rowPtr_[br]; blk < rowPtr_[br + 1];
                 ++blk) {
                const std::uint16_t lv1 = lv1_[blk];
                const std::uint16_t tiles = row4(lv1, lr / kTileSize);
                if (tiles == 0)
                    continue;
                std::int64_t tile = tileBase_[blk] + bitRank(lv1, tile_shift);
                forEachSetBit(tiles, [&](int tj) {
                    const std::uint16_t lv2 = lv2_[tile];
                    std::int64_t v = valPtrLv1_[blk] + valPtrLv2_[tile] +
                        bitRank(lv2, elem_shift);
                    const int c0 = colIdx_[blk] * kBlockSize + tj * kTileSize;
                    forEachSetBit(row4(lv2, lr % kTileSize), [&](int lc) {
                        const double x = vals_[v++];
                        if (x != 0.0) {
                            col_idx.push_back(c0 + lc);
                            vals.push_back(x);
                        }
                    });
                    ++tile;
                });
            }
            row_ptr[r + 1] = static_cast<std::int64_t>(col_idx.size());
        }
    }
    return CsrMatrix(rows_, cols_, std::move(row_ptr), std::move(col_idx),
                     std::move(vals));
}

int
BbcMatrix::blockTileCount(std::int64_t blk) const
{
    return popcount16(lv1_[blk]);
}

BlockPattern
BbcMatrix::blockPattern(std::int64_t blk) const
{
    BlockPattern p;
    const std::int64_t base = tileBase_[blk];
    int tile_i = 0;
    forEachSetBit(lv1_[blk], [&](int tile_bit) {
        const int ti = tile_bit / kTilesPerEdge;
        const int tj = tile_bit % kTilesPerEdge;
        const std::uint16_t lv2 = lv2_[base + tile_i];
        forEachSetBit(lv2, [&](int elem_bit) {
            p.set(ti * kTileSize + elem_bit / kTileSize,
                  tj * kTileSize + elem_bit % kTileSize);
        });
        ++tile_i;
    });
    return p;
}

BbcBlockView
BbcMatrix::blockView(std::int64_t blk) const
{
    BbcBlockView view;
    // The block row is the last one starting at or before blk.
    view.blockRow = static_cast<int>(
        std::upper_bound(rowPtr_.begin(), rowPtr_.end(), blk) -
        rowPtr_.begin() - 1);
    view.blockCol = colIdx_[blk];
    view.lv1 = lv1_[blk];
    view.pattern = blockPattern(blk);
    view.valBase = valPtrLv1_[blk];
    return view;
}

std::array<double, kBlockSize * kBlockSize>
BbcMatrix::blockDense(std::int64_t blk) const
{
    std::array<double, kBlockSize * kBlockSize> dense{};
    const std::int64_t tbase = tileBase_[blk];
    const std::int64_t vbase = valPtrLv1_[blk];
    int tile_i = 0;
    forEachSetBit(lv1_[blk], [&](int tile_bit) {
        const int ti = tile_bit / kTilesPerEdge;
        const int tj = tile_bit % kTilesPerEdge;
        const std::uint16_t lv2 = lv2_[tbase + tile_i];
        std::int64_t v = vbase + valPtrLv2_[tbase + tile_i];
        forEachSetBit(lv2, [&](int elem_bit) {
            const int lr = ti * kTileSize + elem_bit / kTileSize;
            const int lc = tj * kTileSize + elem_bit % kTileSize;
            dense[lr * kBlockSize + lc] = vals_[v++];
        });
        ++tile_i;
    });
    return dense;
}

double
BbcMatrix::nnzPerBlock() const
{
    if (numBlocks() == 0)
        return 0.0;
    return static_cast<double>(nnz()) /
        static_cast<double>(numBlocks());
}

std::uint64_t
BbcMatrix::storageBytes(int bytesPerValue) const
{
    UNISTC_ASSERT(bytesPerValue > 0,
                  "storageBytes needs a positive value width");
    return metadataBytes() +
        static_cast<std::uint64_t>(vals_.size()) *
        static_cast<std::uint64_t>(bytesPerValue);
}

std::uint64_t
BbcMatrix::metadataBytes() const
{
    return static_cast<std::uint64_t>(rowPtr_.size()) * 8 +
        static_cast<std::uint64_t>(colIdx_.size()) * 4 +
        static_cast<std::uint64_t>(lv1_.size()) * 2 +
        static_cast<std::uint64_t>(lv2_.size()) * 2 +
        static_cast<std::uint64_t>(valPtrLv1_.size()) * 4 +
        static_cast<std::uint64_t>(valPtrLv2_.size()) * 1;
}

void
BbcMatrix::validate() const
{
    UNISTC_ASSERT(static_cast<int>(rowPtr_.size()) == blockRows_ + 1,
                  "BBC rowPtr size mismatch");
    UNISTC_ASSERT(rowPtr_.back() ==
                  static_cast<std::int64_t>(colIdx_.size()),
                  "BBC rowPtr back != block count");
    UNISTC_ASSERT(lv1_.size() == colIdx_.size(),
                  "BBC lv1 size != block count");
    UNISTC_ASSERT(valPtrLv1_.size() == colIdx_.size(),
                  "BBC valPtrLv1 size != block count");
    UNISTC_ASSERT(tileBase_.size() == colIdx_.size(),
                  "BBC tileBase size != block count");
    UNISTC_ASSERT(lv2_.size() == valPtrLv2_.size(),
                  "BBC lv2/valPtrLv2 size mismatch");

    std::int64_t tiles = 0;
    std::int64_t values = 0;
    for (std::size_t blk = 0; blk < colIdx_.size(); ++blk) {
        UNISTC_ASSERT(lv1_[blk] != 0, "BBC stored an empty block");
        UNISTC_ASSERT(tileBase_[blk] == tiles,
                      "BBC tileBase prefix mismatch at block ", blk);
        UNISTC_ASSERT(valPtrLv1_[blk] == values,
                      "BBC valPtrLv1 prefix mismatch at block ", blk);
        int block_vals = 0;
        forEachSetBit(lv1_[blk], [&](int) {
            const std::uint16_t lv2 = lv2_[tiles];
            UNISTC_ASSERT(lv2 != 0, "BBC stored an empty tile");
            UNISTC_ASSERT(valPtrLv2_[tiles] == block_vals,
                          "BBC valPtrLv2 offset mismatch");
            block_vals += popcount16(lv2);
            ++tiles;
        });
        values += block_vals;
    }
    UNISTC_ASSERT(values == static_cast<std::int64_t>(vals_.size()),
                  "BBC value count mismatch");
}

} // namespace unistc
