#include "host.hh"

#include <cmath>
#include <cstdio>
#include <cstring>
#include <fstream>

#include "common/build_info.hh"

#ifndef PERFBENCH_CXX_FLAGS
#define PERFBENCH_CXX_FLAGS ""
#endif

namespace perfbench
{

const char *
buildFlags()
{
    return PERFBENCH_CXX_FLAGS;
}

bool
benchmarkableBuild(std::string &why)
{
    const cmpqos::BuildInfo &b = cmpqos::buildInfo();
    const std::string type = b.buildType;
    if (type != "Release" && type != "RelWithDebInfo") {
        why = "build type '" + type + "' is not optimised";
        return false;
    }
    const std::string flags = std::string(buildFlags()) + " " + b.options;
    for (const char *bad : {"-fsanitize", "sanitize=", "--coverage",
                            "-fprofile-arcs", "-O0"}) {
        if (flags.find(bad) != std::string::npos) {
            why = std::string("build flags contain '") + bad + "'";
            return false;
        }
    }
    return true;
}

namespace
{

double
statusKb(const char *field)
{
    std::ifstream in("/proc/self/status");
    std::string line;
    const std::size_t len = std::strlen(field);
    while (std::getline(in, line))
        if (line.compare(0, len, field) == 0 && line.size() > len &&
            line[len] == ':')
            return std::strtod(line.c_str() + len + 1, nullptr);
    return 0.0;
}

} // namespace

double
peakRssMb()
{
    return statusKb("VmHWM") / 1024.0;
}

double
currentRssKb()
{
    return statusKb("VmRSS");
}

void
JsonLine::key(const char *k)
{
    if (!body_.empty())
        body_ += ",";
    body_ += "\"";
    body_ += k;
    body_ += "\":";
}

JsonLine &
JsonLine::num(const char *k, double value)
{
    key(k);
    if (!std::isfinite(value)) {
        body_ += "null";
        return *this;
    }
    char buf[64];
    std::snprintf(buf, sizeof(buf), "%.17g", value);
    body_ += buf;
    return *this;
}

JsonLine &
JsonLine::count(const char *k, std::uint64_t value)
{
    key(k);
    body_ += std::to_string(value);
    return *this;
}

JsonLine &
JsonLine::str(const char *k, const std::string &value)
{
    key(k);
    body_ += "\"";
    for (char c : value) {
        const auto u = static_cast<unsigned char>(c);
        if (c == '"' || c == '\\') {
            body_ += '\\';
            body_ += c;
        } else if (u < 0x20) {
            char buf[8];
            std::snprintf(buf, sizeof(buf), "\\u%04x", u);
            body_ += buf;
        } else {
            body_ += c;
        }
    }
    body_ += "\"";
    return *this;
}

JsonLine &
JsonLine::flag(const char *k, bool value)
{
    key(k);
    body_ += value ? "true" : "false";
    return *this;
}

} // namespace perfbench
