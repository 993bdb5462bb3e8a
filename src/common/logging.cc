#include "common/logging.hh"

#include <unistd.h>

#include <atomic>
#include <cstdlib>
#include <iostream>

namespace texcache {
namespace detail {

[[noreturn]] void
panicImpl(const char *file, int line, const std::string &msg)
{
    std::cerr << "panic: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::abort();
}

[[noreturn]] void
fatalImpl(const char *file, int line, const std::string &msg)
{
    // One report and one exit(): two exit() calls must not run at
    // once, so a thread failing while another already exits (pool
    // workers mapping the same bad trace) waits for the process to
    // end, and a fatal() from exit()'s own handlers ends it at once.
    static std::atomic<bool> exiting{false};
    thread_local bool exitingHere = false;
    if (exiting.exchange(true)) {
        if (exitingHere)
            std::_Exit(1);
        for (;;)
            pause();
    }
    exitingHere = true;
    std::cerr << "fatal: " << msg << "\n  @ " << file << ":" << line
              << std::endl;
    std::exit(1);
}

void
warnImpl(const std::string &msg)
{
    std::cerr << "warn: " << msg << std::endl;
}

void
informImpl(const std::string &msg)
{
    std::cerr << "info: " << msg << std::endl;
}

} // namespace detail
} // namespace texcache
