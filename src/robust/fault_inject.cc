#include "robust/fault_inject.hh"

#include <cstdlib>
#include <chrono>
#include <limits>
#include <sstream>
#include <thread>

#if defined(__unix__) || defined(__APPLE__)
#define UNISTC_FAULT_POSIX 1
#include <fcntl.h>
#include <unistd.h>
#endif

#include "bbc/bbc_matrix.hh"
#include "common/logging.hh"
#include "robust/status.hh"

namespace unistc
{

const char *
toString(FaultKind kind)
{
    switch (kind) {
      case FaultKind::BitmapLv1Flip:
        return "BitmapLv1Flip";
      case FaultKind::BitmapLv2Flip:
        return "BitmapLv2Flip";
      case FaultKind::NanValue:
        return "NanValue";
      case FaultKind::InfValue:
        return "InfValue";
      case FaultKind::TruncateStream:
        return "TruncateStream";
      case FaultKind::GarbleStream:
        return "GarbleStream";
      case FaultKind::ProcAbort:
        return "ProcAbort";
      case FaultKind::ProcExit:
        return "ProcExit";
      case FaultKind::ProcHang:
        return "ProcHang";
      case FaultKind::ProcPartialCrash:
        return "ProcPartialCrash";
    }
    return "?";
}

namespace
{

/** Parse a non-negative decimal; false on empty/overflow/junk. */
bool
parseDec(const std::string &s, long &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    errno = 0;
    const long v = std::strtol(s.c_str(), &end, 10);
    if (end == nullptr || *end != '\0' || errno != 0 || v < 0)
        return false;
    out = v;
    return true;
}

} // namespace

Result<std::vector<ProcFaultSpec>>
parseProcFaultSpecs(const std::string &text)
{
    std::vector<ProcFaultSpec> specs;
    std::istringstream list(text);
    std::string item;
    while (std::getline(list, item, ';')) {
        if (item.empty())
            continue;
        ProcFaultSpec spec;

        // kind[:code] runs up to the mandatory '@'.
        const std::size_t at = item.find('@');
        if (at == std::string::npos) {
            return invalidArgument("proc fault '" + item +
                                   "' is missing '@shard'");
        }
        std::string head = item.substr(0, at);
        std::string tail = item.substr(at + 1);
        const std::size_t colon = head.find(':');
        std::string kind = head.substr(0, colon);
        if (kind == "abort") {
            spec.kind = FaultKind::ProcAbort;
        } else if (kind == "exit") {
            spec.kind = FaultKind::ProcExit;
        } else if (kind == "hang") {
            spec.kind = FaultKind::ProcHang;
        } else if (kind == "partial") {
            spec.kind = FaultKind::ProcPartialCrash;
        } else {
            return invalidArgument("unknown proc fault kind '" + kind +
                                   "'");
        }
        if (colon != std::string::npos) {
            if (spec.kind != FaultKind::ProcExit) {
                return invalidArgument("':code' is only valid on "
                                       "'exit' proc faults");
            }
            long code = 0;
            if (!parseDec(head.substr(colon + 1), code) || code > 255) {
                return invalidArgument("bad exit code in proc fault '" +
                                       item + "'");
            }
            spec.exitCode = static_cast<int>(code);
        }

        // tail = shard[xN|x*][+U]
        const std::size_t plus = tail.find('+');
        if (plus != std::string::npos) {
            long units = 0;
            if (!parseDec(tail.substr(plus + 1), units)) {
                return invalidArgument("bad '+units' in proc fault '" +
                                       item + "'");
            }
            spec.afterUnits = static_cast<std::uint64_t>(units);
            tail.resize(plus);
        }
        const std::size_t x = tail.find('x');
        if (x != std::string::npos) {
            const std::string reps = tail.substr(x + 1);
            if (reps == "*") {
                spec.attempts = 0; // every attempt
            } else {
                long n = 0;
                if (!parseDec(reps, n) || n == 0) {
                    return invalidArgument("bad 'xN' in proc fault '" +
                                           item + "'");
                }
                spec.attempts = static_cast<int>(n);
            }
            tail.resize(x);
        }
        if (tail == "*") {
            spec.shard = -1;
        } else {
            long shard = 0;
            if (!parseDec(tail, shard)) {
                return invalidArgument("bad shard index in proc "
                                       "fault '" + item + "'");
            }
            spec.shard = static_cast<int>(shard);
        }
        specs.push_back(spec);
    }
    return specs;
}

const ProcFaultSpec *
matchProcFault(const std::vector<ProcFaultSpec> &specs, int shard,
               int attempt)
{
    for (const ProcFaultSpec &s : specs) {
        if (s.shard >= 0 && s.shard != shard)
            continue;
        if (s.attempts > 0 && attempt >= s.attempts)
            continue;
        return &s;
    }
    return nullptr;
}

void
executeProcFault(const ProcFaultSpec &spec,
                 const std::string &partialPath,
                 const std::string &partialLine)
{
    UNISTC_WARN("injected proc fault ", toString(spec.kind),
                " firing in pid ", static_cast<long>(
#ifdef UNISTC_FAULT_POSIX
                    ::getpid()
#else
                    0
#endif
                ));
    switch (spec.kind) {
      case FaultKind::ProcAbort:
        std::abort();
      case FaultKind::ProcExit:
        std::_Exit(spec.exitCode);
      case FaultKind::ProcHang:
        // Keep the process alive but silent: no heartbeats, no exit.
        // Only the supervisor's SIGKILL ends this loop.
        for (;;)
            std::this_thread::sleep_for(std::chrono::seconds(3600));
      case FaultKind::ProcPartialCrash: {
#ifdef UNISTC_FAULT_POSIX
        if (!partialPath.empty() && !partialLine.empty()) {
            const int fd = ::open(partialPath.c_str(),
                                  O_WRONLY | O_CREAT | O_APPEND, 0644);
            if (fd >= 0) {
                // Half a record, no newline: exactly the torn tail a
                // kill mid-write leaves behind.
                const std::size_t n = partialLine.size() / 2;
                (void)!::write(fd, partialLine.data(), n);
                ::fsync(fd);
                ::close(fd);
            }
        }
#endif
        std::_Exit(70);
      }
      default:
        UNISTC_PANIC("executeProcFault: ", toString(spec.kind),
                     " is not a process fault");
    }
}

std::string
FaultPlan::corruptBbc(BbcMatrix &m, FaultKind kind)
{
    std::ostringstream what;
    switch (kind) {
      case FaultKind::BitmapLv1Flip: {
        if (m.lv1_.empty())
            return "";
        const auto blk = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.lv1_.size()) - 1));
        const int bit = rng_.nextInRange(0, 15);
        m.lv1_[blk] ^= static_cast<std::uint16_t>(1u << bit);
        what << "flipped Lv1 bit " << bit << " of block " << blk;
        break;
      }
      case FaultKind::BitmapLv2Flip: {
        if (m.lv2_.empty())
            return "";
        const auto tile = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.lv2_.size()) - 1));
        const int bit = rng_.nextInRange(0, 15);
        m.lv2_[tile] ^= static_cast<std::uint16_t>(1u << bit);
        what << "flipped Lv2 bit " << bit << " of tile " << tile;
        break;
      }
      case FaultKind::NanValue:
      case FaultKind::InfValue: {
        if (m.vals_.empty())
            return "";
        const auto i = static_cast<std::size_t>(
            rng_.nextInRange(0, static_cast<int>(m.vals_.size()) - 1));
        m.vals_[i] = kind == FaultKind::NanValue
            ? std::numeric_limits<double>::quiet_NaN()
            : std::numeric_limits<double>::infinity();
        what << "overwrote value " << i << " with "
             << (kind == FaultKind::NanValue ? "NaN" : "Inf");
        break;
      }
      default:
        UNISTC_PANIC("corruptBbc: ", toString(kind),
                     " is not a data fault");
    }
    return what.str();
}

std::string
FaultPlan::corruptBytes(std::string &bytes, FaultKind kind,
                        std::size_t minOffset)
{
    if (bytes.size() <= minOffset)
        return "";
    std::ostringstream what;
    const auto span = static_cast<int>(bytes.size() - minOffset);
    switch (kind) {
      case FaultKind::TruncateStream: {
        // Keep at least minOffset bytes so the header (when spared)
        // survives and the *payload* checks must catch the damage.
        const std::size_t keep =
            minOffset +
            static_cast<std::size_t>(rng_.nextInRange(0, span - 1));
        what << "truncated " << bytes.size() << "-byte image to "
             << keep << " bytes";
        bytes.resize(keep);
        break;
      }
      case FaultKind::GarbleStream: {
        const std::size_t at =
            minOffset +
            static_cast<std::size_t>(rng_.nextInRange(0, span - 1));
        // XOR with a nonzero mask always changes the byte.
        const char mask =
            static_cast<char>(rng_.nextInRange(1, 255));
        bytes[at] = static_cast<char>(bytes[at] ^ mask);
        what << "garbled byte " << at << " (xor 0x" << std::hex
             << (static_cast<unsigned>(mask) & 0xFFu) << ")";
        break;
      }
      default:
        UNISTC_PANIC("corruptBytes: ", toString(kind),
                     " is not a stream fault");
    }
    return what.str();
}

} // namespace unistc
