#include "util/logging.h"

#include <cstdlib>
#include <iostream>
#include <mutex>

namespace fastgl {
namespace util {

namespace {

std::mutex g_mutex;

/** Write one "[fastgl:<tag>] <message>" line to stderr. */
void
emit(const char *tag, const std::string &message)
{
    std::lock_guard<std::mutex> lock(g_mutex);
    std::cerr << "[fastgl:" << tag << "] " << message << '\n';
}

} // namespace

void
warn(const std::string &message)
{
    emit("WARN ", message);
}

void
fatal(const std::string &message)
{
    emit("ERROR", "fatal: " + message);
    std::exit(1);
}

void
panic(const std::string &message)
{
    emit("ERROR", "panic: " + message);
    std::abort();
}

} // namespace util
} // namespace fastgl
