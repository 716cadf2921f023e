#include "check.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>
#include <sstream>

namespace hostbench
{

using namespace unistc;

namespace
{

constexpr std::uint64_t kFnvOffset = 0xcbf29ce484222325ULL;

std::uint64_t
fnv1a(const void *data, std::size_t size, std::uint64_t h = kFnvOffset)
{
    const auto *p = static_cast<const unsigned char *>(data);
    for (std::size_t i = 0; i < size; ++i) {
        h ^= p[i];
        h *= 0x100000001b3ULL;
    }
    return h;
}

std::uint64_t
mixU64(std::uint64_t h, std::uint64_t v)
{
    return fnv1a(&v, sizeof(v), h);
}

std::uint64_t
mixDouble(std::uint64_t h, double d)
{
    std::uint64_t bits = 0;
    std::memcpy(&bits, &d, sizeof(bits));
    return mixU64(h, bits);
}

} // namespace

std::uint64_t
resultDigest(const RunResult &r)
{
    std::uint64_t h = kFnvOffset;
    for (const std::uint64_t v :
         {r.cycles, r.products, r.macSlots, r.tasksT1, r.tasksT3,
          r.stallCycles, r.dpgActiveAccum, r.cNetScaleAccum,
          r.traffic.readsA, r.traffic.wastedA, r.traffic.readsB,
          r.traffic.wastedB, r.traffic.writesC,
          r.utilHist.totalCount(), r.utilHist.nanCount()})
        h = mixU64(h, v);
    for (int b = 0; b < r.utilHist.numBuckets(); ++b)
        h = mixU64(h, r.utilHist.bucketCount(b));
    for (const double e :
         {r.energy.fetchA, r.energy.fetchB, r.energy.writeC,
          r.energy.schedule, r.energy.compute})
        h = mixDouble(h, e);
    return h;
}

std::uint64_t
lineupDigest(const std::vector<RunResult> &rs)
{
    std::uint64_t h = kFnvOffset;
    for (const RunResult &r : rs)
        h = mixU64(h, resultDigest(r));
    return h;
}

std::uint64_t
textDigest(const std::string &bytes)
{
    return fnv1a(bytes.data(), bytes.size());
}

std::uint64_t
structuralProducts(Kernel kernel, const driver::Prepared &p,
                   int bCols)
{
    const CsrMatrix &a = p.csr;
    const auto nnz = static_cast<std::uint64_t>(a.nnz());
    switch (kernel) {
      case Kernel::SpMV:
        return nnz;
      case Kernel::SpMM:
        return nnz * static_cast<std::uint64_t>(bCols);
      case Kernel::SpMSpV: {
        std::vector<bool> live(static_cast<std::size_t>(a.cols()));
        for (const int j : p.x50.idx())
            live[static_cast<std::size_t>(j)] = true;
        std::uint64_t n = 0;
        for (const int j : a.colIdx())
            n += live[static_cast<std::size_t>(j)] ? 1 : 0;
        return n;
      }
      case Kernel::SpGEMM: {
        std::uint64_t n = 0;
        for (const int k : a.colIdx())
            n += static_cast<std::uint64_t>(a.rowNnz(k));
        return n;
      }
    }
    return 0;
}

std::size_t
countMismatches(const DigestList &actual, const DigestList &expected)
{
    const std::size_t common = std::min(actual.size(), expected.size());
    std::size_t bad = std::max(actual.size(), expected.size()) - common;
    for (std::size_t i = 0; i < common; ++i) {
        if (actual[i].key != expected[i].key ||
            actual[i].digest != expected[i].digest)
            ++bad;
    }
    return bad;
}

bool
loadDigests(const std::string &path, std::uint64_t *seed,
            DigestList *out)
{
    std::ifstream in(path);
    std::string word;
    if (!(in >> word >> *seed) || word != "seed")
        return false;
    out->clear();
    std::string line;
    std::getline(in, line);
    while (std::getline(in, line)) {
        if (line.empty())
            continue;
        std::istringstream fields(line);
        UnitDigest u;
        std::string hex;
        if (!(fields >> u.key >> hex))
            return false;
        char *end = nullptr;
        u.digest = std::strtoull(hex.c_str(), &end, 16);
        if (end == hex.c_str() || *end != '\0')
            return false;
        out->push_back(std::move(u));
    }
    return true;
}

bool
writeDigests(const std::string &path, std::uint64_t seed,
             const DigestList &list)
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    std::fprintf(f, "seed %llu\n", static_cast<unsigned long long>(seed));
    for (const UnitDigest &u : list)
        std::fprintf(f, "%s %016llx\n", u.key.c_str(),
                     static_cast<unsigned long long>(u.digest));
    return std::fclose(f) == 0;
}

void
PaperError::add(const RunResult &ds, const RunResult &rm,
                const RunResult &uni)
{
    if (uni.cycles == 0)
        return; // Table VIII skips empty runs the same way.
    const Comparison cd = compare(ds, uni);
    const Comparison cr = compare(rm, uni);
    dsP_.add(cd.speedup);
    rmP_.add(cr.speedup);
    dsEp_.add(cd.energyEfficiency);
    rmEp_.add(cr.energyEfficiency);
}

double
PaperError::pct() const
{
    const double err = std::fabs(dsP_.value() / 3.35 - 1.0) +
                       std::fabs(rmP_.value() / 2.21 - 1.0) +
                       std::fabs(dsEp_.value() / 7.05 - 1.0) +
                       std::fabs(rmEp_.value() / 2.96 - 1.0);
    return 100.0 * err / 4.0;
}

} // namespace hostbench
