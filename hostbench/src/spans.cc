#include "spans.hh"

#include <cstdio>

#include "common/logging.hh"

namespace hostbench
{

SpanRecorder::SpanRecorder() : epoch_(std::chrono::steady_clock::now())
{
}

double
SpanRecorder::now() const
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now() - epoch_)
        .count();
}

int
SpanRecorder::begin(const std::string &name, std::uint64_t id)
{
    Span s;
    s.name = name;
    s.start = now();
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size()) - 1;
    open_.push_back(index);
    return index;
}

void
SpanRecorder::end(int index)
{
    UNISTC_ASSERT(!open_.empty() && open_.back() == index,
                  "span ", index, " closed out of order");
    spans_[static_cast<std::size_t>(index)].end = now();
    open_.pop_back();
}

void
SpanRecorder::charge(const std::string &name, double seconds)
{
    UNISTC_ASSERT(!open_.empty(), "charge '", name,
                  "' outside any span");
    charges_.push_back({name, open_.back(), seconds});
}

void
SpanRecorder::add(const std::string &name, double start, double end,
                  std::uint64_t id, int tid)
{
    Span s;
    s.name = name;
    s.start = start;
    s.end = end;
    s.parent = open_.empty() ? -1 : open_.back();
    s.id = id;
    s.tid = tid;
    spans_.push_back(std::move(s));
}

double
SpanRecorder::duration(int index) const
{
    const Span &s = spans_.at(static_cast<std::size_t>(index));
    return s.end - s.start;
}

std::map<std::string, double>
SpanRecorder::selfTimes(int root) const
{
    // Parents are always recorded before their children, so one
    // forward pass decides subtree membership.
    std::vector<bool> inTree(spans_.size(), root < 0);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (static_cast<int>(i) == root ||
            (p >= 0 && inTree[static_cast<std::size_t>(p)]))
            inTree[i] = true;
    }
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].end - spans_[i].start;
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const int p = spans_[i].parent;
        if (p >= 0)
            self[static_cast<std::size_t>(p)] -=
                spans_[i].end - spans_[i].start;
    }
    std::map<std::string, double> out;
    for (const Charge &c : charges_) {
        if (!inTree[static_cast<std::size_t>(c.parent)])
            continue;
        self[static_cast<std::size_t>(c.parent)] -= c.seconds;
        out[c.name] += c.seconds;
    }
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        if (inTree[i])
            out[spans_[i].name] += self[i];
    }
    return out;
}

double
SpanRecorder::total(const std::string &name) const
{
    double sum = 0.0;
    for (const Span &s : spans_) {
        if (s.name == name)
            sum += s.end - s.start;
    }
    return sum;
}

std::size_t
SpanRecorder::count(const std::string &name) const
{
    std::size_t n = 0;
    for (const Span &s : spans_)
        n += s.name == name ? 1 : 0;
    return n;
}

namespace
{

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\') {
            out.push_back('\\');
            out.push_back(c);
        } else if (static_cast<unsigned char>(c) < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", c);
            out += buf;
        } else {
            out.push_back(c);
        }
    }
    return out + "\"";
}

} // namespace

bool
SpanRecorder::writeChromeTrace(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "w");
    if (f == nullptr)
        return false;
    // Charges have no interval of their own; they ride on their
    // parent span as args.
    std::vector<std::vector<const Charge *>> byParent(spans_.size());
    for (const Charge &c : charges_)
        byParent[static_cast<std::size_t>(c.parent)].push_back(&c);
    std::fputs("{\"displayTimeUnit\":\"ms\",\"traceEvents\":[", f);
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        std::fprintf(f,
                     "%s\n{\"name\":%s,\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                     "\"id\":%llu,\"parent\":%d",
                     i == 0 ? "" : ",", jsonString(s.name).c_str(),
                     s.tid, s.start * 1e6, (s.end - s.start) * 1e6,
                     static_cast<unsigned long long>(s.id), s.parent);
        for (const Charge *c : byParent[i])
            std::fprintf(f, ",%s:%.9f",
                         jsonString(c->name + "_s").c_str(),
                         c->seconds);
        std::fputs("}}", f);
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace hostbench
