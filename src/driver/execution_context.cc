#include "driver/execution_context.hh"

#include <cstdarg>
#include <cstdio>

namespace unistc
{
namespace driver
{

namespace
{

ExecutionContext *&
currentSlot()
{
    static ExecutionContext *current = nullptr;
    return current;
}

} // namespace

ExecutionContext &
ExecutionContext::global()
{
    static ExecutionContext *ctx =
        new ExecutionContext(/*processDefault=*/true);
    return *ctx;
}

ExecutionContext *
ExecutionContext::current()
{
    return currentSlot();
}

ExecutionContext *
ExecutionContext::makeCurrent(ExecutionContext *ctx)
{
    ExecutionContext *previous = currentSlot();
    currentSlot() = ctx;
    return previous;
}

ExecutionContext &
ExecutionContext::active()
{
    ExecutionContext *ctx = currentSlot();
    return ctx != nullptr ? *ctx : global();
}

void
ExecutionContext::report(std::string_view text)
{
    if (!reportingPass_)
        return;
    if (capture_ != nullptr)
        capture_->append(text);
    else
        std::fwrite(text.data(), 1, text.size(), stdout);
}

void
ExecutionContext::beginRun()
{
    sweep_.reset();
    reportingPass_ = true;
}

void
report(std::string_view text)
{
    ExecutionContext::active().report(text);
}

void
reportf(const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list sized;
    va_copy(sized, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, sized);
    va_end(sized);
    std::string text(static_cast<std::size_t>(n > 0 ? n : 0), '\0');
    std::vsnprintf(text.data(), text.size() + 1, fmt, args);
    va_end(args);
    report(text);
}

} // namespace driver
} // namespace unistc
