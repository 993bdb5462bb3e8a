/** @file
 * Scoped TEXCACHE_THREADS override for the tests that pin results
 * across worker counts.
 */

#ifndef TEXCACHE_TESTS_THREAD_ENV_HH
#define TEXCACHE_TESTS_THREAD_ENV_HH

#include <cstdlib>
#include <string>

namespace texcache {

/** Scoped TEXCACHE_THREADS override (restores the prior value);
 *  nullptr unsets it. */
class ThreadEnv
{
  public:
    explicit ThreadEnv(const char *value)
    {
        const char *old = std::getenv("TEXCACHE_THREADS");
        had_ = old != nullptr;
        if (old)
            saved_ = old;
        if (value)
            setenv("TEXCACHE_THREADS", value, 1);
        else
            unsetenv("TEXCACHE_THREADS");
    }
    ~ThreadEnv()
    {
        if (had_)
            setenv("TEXCACHE_THREADS", saved_.c_str(), 1);
        else
            unsetenv("TEXCACHE_THREADS");
    }
    ThreadEnv(const ThreadEnv &) = delete;
    ThreadEnv &operator=(const ThreadEnv &) = delete;

  private:
    bool had_;
    std::string saved_;
};

} // namespace texcache

#endif // TEXCACHE_TESTS_THREAD_ENV_HH
