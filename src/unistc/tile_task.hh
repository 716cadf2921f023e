/**
 * @file
 * T3 tile task — the 4x4x4 unit of work the TMS emits. A T3 task is
 * C_tile(i,j) += A_tile(i,k) x B_tile(k,j); its workload is fully
 * described by the two 16-bit Lv2 tile bitmaps.
 */

#ifndef UNISTC_UNISTC_TILE_TASK_HH
#define UNISTC_UNISTC_TILE_TASK_HH

#include <cstdint>

namespace unistc
{

/** One T3 (tile-level) task. */
struct TileTask
{
    std::int8_t i = 0; ///< C tile row (0..3).
    std::int8_t j = 0; ///< C tile column (0..3).
    std::int8_t k = 0; ///< Reduction tile index (0..3).

    std::uint16_t aTile = 0; ///< Lv2 bitmap of A tile (i, k).
    std::uint16_t bTile = 0; ///< Lv2 bitmap of B tile (k, j).

    int products = 0; ///< Intermediate products (<= 64).
    int segments = 0; ///< T4 dot-product segments (<= 16).

    /**
     * Distinct A / B tile elements that take part in at least one
     * product (activeOperands()): the operands actually fetched.
     */
    int aElems = 0;
    int bElems = 0;

    /** C-tile identity used for write-conflict detection. */
    int cTileId() const { return i * 4 + j; }
};

/**
 * Intermediate-product count of a T3 task restricted to @p n_cols
 * output columns (4 for MM, 1 for MV tasks in the j = 0 tile column).
 */
int tileProductCount(std::uint16_t a_tile, std::uint16_t b_tile,
                     int n_cols = 4);

/** T4 segment count (nonzero output dot-products) of a T3 task. */
int tileSegmentCount(std::uint16_t a_tile, std::uint16_t b_tile,
                     int n_cols = 4);

} // namespace unistc

#endif // UNISTC_UNISTC_TILE_TASK_HH
