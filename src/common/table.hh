/**
 * @file
 * ASCII table rendering for the benchmark harnesses. Every bench binary
 * prints the rows/series of its paper table or figure through this
 * formatter so outputs stay aligned and diff-friendly.
 */

#ifndef UNISTC_COMMON_TABLE_HH
#define UNISTC_COMMON_TABLE_HH

#include <string>
#include <vector>

namespace unistc
{

/** Column-aligned text table with a header row and optional title. */
class TextTable
{
  public:
    /** @param title printed above the table; may be empty. */
    explicit TextTable(std::string title = "");

    /** Set the header row (defines the column count). */
    void setHeader(std::vector<std::string> header);

    /** Append a data row; must match the header width. */
    void addRow(std::vector<std::string> row);

    /** Insert a horizontal separator before the next row. */
    void addSeparator();

    /** Render to a string with aligned columns. */
    std::string render() const;

  private:
    std::string title_;
    std::vector<std::string> header_;
    // A row holding the single sentinel cell "\x01" renders as a rule.
    std::vector<std::vector<std::string>> rows_;
};

/** Format a double with @p digits fractional digits. */
std::string fmtDouble(double v, int digits = 2);

/** Format a ratio like "2.21x". */
std::string fmtRatio(double v, int digits = 2);

/** Format a fraction as a percentage like "84.3%". */
std::string fmtPercent(double v, int digits = 1);

/** Format an integer with thousands separators. */
std::string fmtCount(std::uint64_t v);

/** Format a byte count with an SI-ish suffix (K/M/G, base 1024). */
std::string fmtBytes(std::uint64_t v);

/** Format an energy value given in picojoules (pJ/nJ/uJ/mJ). */
std::string fmtEnergyPj(double pj);

} // namespace unistc

#endif // UNISTC_COMMON_TABLE_HH
