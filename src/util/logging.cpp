#include "util/logging.hpp"

#include <cstdio>
#include <cstdlib>

namespace a3 {

namespace {

LogLevel globalLevel = LogLevel::Warn;

}  // namespace

void
setLogLevel(LogLevel level)
{
    globalLevel = level;
}

LogLevel
logLevel()
{
    return globalLevel;
}

namespace detail {

void
emit(LogLevel level, const char *tag, const std::string &message)
{
    if (static_cast<int>(level) > static_cast<int>(globalLevel) &&
        level != LogLevel::Quiet) {
        return;
    }
    std::fprintf(stderr, "[a3:%s] %s\n", tag, message.c_str());
}

void
exitNow(int status)
{
    std::fflush(nullptr);
    std::_Exit(status);
}

}  // namespace detail

}  // namespace a3
