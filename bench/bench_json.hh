/**
 * @file
 * Shared machine-readable emitter for the extension benches.
 *
 * Every ext_* bench writes a BENCH_<name>.json next to its
 * human-readable table so CI can archive a perf trajectory and
 * bench/baselines/ can pin a reference shape. The document is the
 * same for every bench:
 *
 *   {
 *     "bench": "<name>",
 *     "git_hash": "<build hash>",
 *     "nproc": <hardware threads>,
 *     "build_type": "<CMake build type>",
 *     "compiler": "<compiler and version>",
 *     "options": "<build option summary>",
 *     <meta scalars, insertion order>,
 *     "configs": [ {<row fields, insertion order>}, ... ]
 *   }
 *
 * The four host fields come from buildInfo(), as every `--version`
 * line does, and std::thread::hardware_concurrency(), so a number can
 * be read against the machine and build that produced it.
 *
 * Fields are pre-rendered strings so each bench keeps exact control
 * of its numeric formatting (a perf trajectory diff should not churn
 * because a printf width changed). argv[1] conventionally overrides
 * the output path; see benchJsonPath().
 */

#ifndef CMPQOS_BENCH_BENCH_JSON_HH
#define CMPQOS_BENCH_BENCH_JSON_HH

#include <cstdint>
#include <cstdio>
#include <string>
#include <thread>
#include <utility>
#include <vector>

#include "common/build_info.hh"

namespace cmpqos::bench
{

/** Default output path, overridable by the bench's argv[1]. */
inline std::string
benchJsonPath(int argc, char **argv, const std::string &bench)
{
    return argc > 1 ? argv[1] : "BENCH_" + bench + ".json";
}

class BenchJson
{
  public:
    /** One "configs" entry; fields render in insertion order. */
    class Row
    {
      public:
        Row &u64(const std::string &key, std::uint64_t v)
        {
            return raw(key, std::to_string(v));
        }

        Row &i64(const std::string &key, std::int64_t v)
        {
            return raw(key, std::to_string(v));
        }

        /** Fixed-point double; precision picks the printf %.*f. */
        Row &f64(const std::string &key, double v, int precision)
        {
            char buf[64];
            std::snprintf(buf, sizeof(buf), "%.*f", precision, v);
            return raw(key, buf);
        }

        Row &str(const std::string &key, const std::string &v)
        {
            return raw(key, "\"" + v + "\"");
        }

        Row &boolean(const std::string &key, bool v)
        {
            return raw(key, v ? "true" : "false");
        }

        /** Pre-rendered JSON value (escape hatch). */
        Row &raw(const std::string &key, std::string value)
        {
            fields_.emplace_back(key, std::move(value));
            return *this;
        }

      private:
        friend class BenchJson;
        std::vector<std::pair<std::string, std::string>> fields_;
    };

    explicit BenchJson(std::string bench) : bench_(std::move(bench)) {}

    /** Top-level scalar, emitted after the host fields in insertion order. */
    BenchJson &meta(const std::string &key, std::uint64_t v)
    {
        return metaRaw(key, std::to_string(v));
    }

    BenchJson &meta(const std::string &key, std::int64_t v)
    {
        return metaRaw(key, std::to_string(v));
    }

    BenchJson &meta(const std::string &key, int v)
    {
        return metaRaw(key, std::to_string(v));
    }

    BenchJson &metaStr(const std::string &key, const std::string &v)
    {
        return metaRaw(key, "\"" + v + "\"");
    }

    BenchJson &metaRaw(const std::string &key, std::string value)
    {
        meta_.emplace_back(key, std::move(value));
        return *this;
    }

    Row &addRow()
    {
        rows_.emplace_back();
        return rows_.back();
    }

    /**
     * Write the document; prints "wrote <path>" on success, an error
     * to stderr on failure. Returns false on I/O failure so the
     * bench can exit non-zero.
     */
    bool write(const std::string &path) const
    {
        std::FILE *out = std::fopen(path.c_str(), "w");
        if (out == nullptr) {
            std::fprintf(stderr, "cannot write %s\n", path.c_str());
            return false;
        }
        const BuildInfo &build = buildInfo();
        std::fprintf(out,
                     "{\n"
                     "  \"bench\": \"%s\",\n"
                     "  \"git_hash\": \"%s\",\n"
                     "  \"nproc\": %u,\n"
                     "  \"build_type\": \"%s\",\n"
                     "  \"compiler\": \"%s\",\n"
                     "  \"options\": \"%s\",\n",
                     bench_.c_str(), build.gitHash,
                     std::thread::hardware_concurrency(), build.buildType,
                     build.compiler, build.options);
        for (const auto &[key, value] : meta_)
            std::fprintf(out, "  \"%s\": %s,\n", key.c_str(),
                         value.c_str());
        std::fprintf(out, "  \"configs\": [\n");
        for (std::size_t i = 0; i < rows_.size(); ++i) {
            std::fprintf(out, "    {");
            const auto &fields = rows_[i].fields_;
            for (std::size_t j = 0; j < fields.size(); ++j)
                std::fprintf(out, "%s\"%s\": %s",
                             j > 0 ? ", " : "", fields[j].first.c_str(),
                             fields[j].second.c_str());
            std::fprintf(out, "}%s\n",
                         i + 1 < rows_.size() ? "," : "");
        }
        std::fprintf(out, "  ]\n}\n");
        std::fclose(out);
        std::printf("\nwrote %s\n", path.c_str());
        return true;
    }

  private:
    std::string bench_;
    std::vector<std::pair<std::string, std::string>> meta_;
    std::vector<Row> rows_;
};

} // namespace cmpqos::bench

#endif // CMPQOS_BENCH_BENCH_JSON_HH
