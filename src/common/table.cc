#include "common/table.hh"

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <sstream>

#include "common/logging.hh"

namespace unistc
{

namespace
{
const std::string kRuleSentinel = "\x01";
} // namespace

TextTable::TextTable(std::string title) : title_(std::move(title))
{
}

void
TextTable::setHeader(std::vector<std::string> header)
{
    header_ = std::move(header);
}

void
TextTable::addRow(std::vector<std::string> row)
{
    UNISTC_ASSERT(header_.empty() || row.size() == header_.size(),
                  "row width ", row.size(), " != header width ",
                  header_.size());
    rows_.push_back(std::move(row));
}

void
TextTable::addSeparator()
{
    rows_.push_back({kRuleSentinel});
}

std::string
TextTable::render() const
{
    // Compute column widths over header and data rows.
    std::vector<std::size_t> widths(header_.size(), 0);
    auto fold = [&](const std::vector<std::string> &row) {
        if (row.size() == 1 && row[0] == kRuleSentinel)
            return;
        if (widths.size() < row.size())
            widths.resize(row.size(), 0);
        for (std::size_t i = 0; i < row.size(); ++i)
            widths[i] = std::max(widths[i], row[i].size());
    };
    fold(header_);
    for (const auto &row : rows_)
        fold(row);

    std::size_t total = 0;
    for (std::size_t w : widths)
        total += w + 3;

    std::ostringstream os;
    if (!title_.empty())
        os << title_ << "\n";

    auto emitRule = [&]() { os << std::string(total, '-') << "\n"; };
    auto emitRow = [&](const std::vector<std::string> &row) {
        for (std::size_t i = 0; i < row.size(); ++i) {
            os << row[i]
               << std::string(widths[i] - row[i].size() + 3, ' ');
        }
        os << "\n";
    };

    if (!header_.empty()) {
        emitRow(header_);
        emitRule();
    }
    for (const auto &row : rows_) {
        if (row.size() == 1 && row[0] == kRuleSentinel)
            emitRule();
        else
            emitRow(row);
    }
    return os.str();
}

std::string
fmtDouble(double v, int digits)
{
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.*f", digits, v);
    return buf;
}

std::string
fmtRatio(double v, int digits)
{
    return fmtDouble(v, digits) + "x";
}

std::string
fmtPercent(double v, int digits)
{
    return fmtDouble(v * 100.0, digits) + "%";
}

std::string
fmtCount(std::uint64_t v)
{
    std::string raw = std::to_string(v);
    std::string out;
    int pos = 0;
    for (auto it = raw.rbegin(); it != raw.rend(); ++it) {
        if (pos && pos % 3 == 0)
            out.push_back(',');
        out.push_back(*it);
        ++pos;
    }
    std::reverse(out.begin(), out.end());
    return out;
}

std::string
fmtBytes(std::uint64_t v)
{
    const char *suffix[] = {"B", "KiB", "MiB", "GiB", "TiB"};
    double x = static_cast<double>(v);
    int s = 0;
    while (x >= 1024.0 && s < 4) {
        x /= 1024.0;
        ++s;
    }
    return fmtDouble(x, s == 0 ? 0 : 2) + " " + suffix[s];
}

std::string
fmtEnergyPj(double pj)
{
    const char *suffix[] = {"pJ", "nJ", "uJ", "mJ", "J"};
    double x = pj;
    int s = 0;
    while (x >= 1000.0 && s < 4) {
        x /= 1000.0;
        ++s;
    }
    return fmtDouble(x, 2) + " " + suffix[s];
}

} // namespace unistc
