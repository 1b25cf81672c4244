#include "common/log.hpp"

#include <cstdio>
#include <mutex>

#include "common/config.hpp"

namespace pasta {

namespace {

std::mutex g_log_mutex;

const char*
level_tag(LogLevel level)
{
    switch (level) {
      case LogLevel::kDebug: return "debug";
      case LogLevel::kInfo: return "info";
      case LogLevel::kWarn: return "warn";
      case LogLevel::kError: return "error";
    }
    return "?";
}

}  // namespace

void
set_log_threshold_from_env()
{
    set_log_threshold(static_cast<LogLevel>(config::choice("PASTA_LOG")));
}

void
log_message(LogLevel level, const std::string& message)
{
    std::lock_guard<std::mutex> lock(g_log_mutex);
    std::fprintf(stderr, "[pasta %s] %s\n", level_tag(level), message.c_str());
}

}  // namespace pasta
