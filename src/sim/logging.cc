#include "sim/logging.hh"

#include <cstdarg>
#include <stdexcept>

#include "sim/config.hh"

namespace dsm {

std::string
csprintf(const char *fmt, ...)
{
    va_list args;
    va_start(args, fmt);
    va_list args_copy;
    va_copy(args_copy, args);
    int len = std::vsnprintf(nullptr, 0, fmt, args);
    va_end(args);
    std::string out;
    if (len > 0) {
        out.resize(static_cast<size_t>(len));
        std::vsnprintf(out.data(), out.size() + 1, fmt, args_copy);
    }
    va_end(args_copy);
    return out;
}

namespace {

// -1 = follow DSM_QUIET; 0/1 = explicit programmatic override.
int quiet_override = -1;

} // anonymous namespace

void
setLogQuiet(bool quiet)
{
    quiet_override = quiet ? 1 : 0;
}

bool
logQuiet()
{
    return quiet_override >= 0 ? quiet_override != 0 : envFlag("DSM_QUIET");
}

void
logMessage(const char *level, const std::string &msg)
{
    if (logQuiet())
        return;
    std::fprintf(stderr, "%s: %s\n", level, msg.c_str());
}

void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "panic: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::abort();
}

void
fatalImpl(const char *file, int line, const std::string &msg)
{
    std::fprintf(stderr, "fatal: %s\n  @ %s:%d\n", msg.c_str(), file, line);
    std::exit(1);
}

} // namespace dsm
