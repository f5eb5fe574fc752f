/**
 * @file
 * Host and build context recorded with every result, the refusal to
 * measure unoptimised or instrumented builds, process memory
 * readings, and the one-line JSON the runner reads.
 */

#ifndef PERFBENCH_HOST_HH
#define PERFBENCH_HOST_HH

#include <cstdint>
#include <string>

namespace perfbench
{

/** Compiler flags of this build's configuration (from CMake). */
const char *buildFlags();

/**
 * Whether numbers from this build mean anything: an optimised build
 * type (Release or RelWithDebInfo) whose flags add no sanitizer,
 * coverage instrumentation or -O0. @p why names the problem.
 */
bool benchmarkableBuild(std::string &why);

/** Peak resident set of this process so far (VmHWM), MiB. */
double peakRssMb();

/** Current resident set of this process (VmRSS), KiB. */
double currentRssKb();

/** Ordered, flat JSON object rendered on one line. */
class JsonLine
{
  public:
    JsonLine &num(const char *key, double value);
    JsonLine &count(const char *key, std::uint64_t value);
    JsonLine &str(const char *key, const std::string &value);
    JsonLine &flag(const char *key, bool value);

    std::string render() const { return "{" + body_ + "}"; }

  private:
    void key(const char *k);

    std::string body_;
};

} // namespace perfbench

#endif // PERFBENCH_HOST_HH
