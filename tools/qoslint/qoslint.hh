/**
 * @file
 * qoslint — the repo's one lint binary. Three analyzers behind one
 * binary, run as ctest entries (label "lint") and in the CI `static`
 * lane:
 *
 *  - detlint: bans constructs that inject host state (wall clocks,
 *    process RNGs, thread ids, pointer order, hash-order iteration in
 *    export code) into the deterministic simulation paths;
 *
 *  - layerlint: checks every `#include "module/..."` edge in src/
 *    against the declared module DAG, so architectural layering is a
 *    build gate instead of a convention;
 *
 *  - lockorder: extracts the Mutex acquisition order from annotated
 *    lock sites (MutexLock nesting plus CMPQOS_REQUIRES seeding) and
 *    rejects cycles in the lock hierarchy; also bans raw std::mutex
 *    primitives that would be invisible to the thread-safety
 *    analysis.
 *
 * qoslint deliberately links nothing from src/ (it polices that
 * code) and its output is deterministic: files are scanned in sorted
 * path order, findings sorted before printing. The wire-schema lock
 * is not a qoslint analyzer: it must see what the codec writes, so
 * it is recorded by running the codec itself
 * (tests/wire/test_wire_schema.cc), which links src/.
 *
 * Escape hatch, one namespace for every analyzer:
 * `// qoslint:allow(<rule>): <reason>` on the offending line or the
 * comment line above. The reason is mandatory; naming an unknown rule
 * (see knownRule) is itself a `qoslint-directive` finding.
 *
 * Exit codes: 0 clean, 1 findings, 2 usage/configuration error.
 */

#ifndef CMPQOS_TOOLS_QOSLINT_HH
#define CMPQOS_TOOLS_QOSLINT_HH

#include <string>
#include <tuple>
#include <vector>

#include "lint_util.hh"

namespace qoslint
{

namespace fs = lintutil::fs;

/** True for an id in detlint's rule table (detlint.cc). */
bool detlintRule(const std::string &id);

/** Every rule id any subcommand can fire or a pragma can name.
 *  Shared across the analyzers so a pragma for one analyzer in a file
 *  another scans (a wall-clock allow seen by layerlint, say) is not
 *  reported as unknown. */
inline bool
knownRule(const std::string &id)
{
    return id == "layering" || id == "lock-order" ||
           id == "raw-mutex" ||
           id == "qoslint-directive" || detlintRule(id);
}

inline lintutil::Directives
parseDirectives(const std::string &line)
{
    return lintutil::parseDirectives(line, "qoslint", knownRule);
}

struct Violation
{
    std::string file;
    int line = 0;
    std::string rule;
    std::string what;

    bool
    operator<(const Violation &o) const
    {
        return std::tie(file, line, rule, what) <
               std::tie(o.file, o.line, o.rule, o.what);
    }
};

inline void
printViolations(std::vector<Violation> &all)
{
    std::sort(all.begin(), all.end());
    for (const Violation &v : all)
        std::printf("%s:%d: [%s] %s\n", v.file.c_str(), v.line,
                    v.rule.c_str(), v.what.c_str());
}

/** Parsed EXPECT file of one self-test fixture case:
 *  `<pass|fail> [required output substring]`. */
struct Expectation
{
    bool pass = true;
    std::string substring;
};

inline bool
readExpectation(const fs::path &case_dir, Expectation &out,
                std::string &err)
{
    std::string text;
    if (!lintutil::readFile(case_dir / "EXPECT", text)) {
        err = "missing EXPECT file";
        return false;
    }
    const std::string line = text.substr(0, text.find('\n'));
    const std::size_t sp = line.find(' ');
    const std::string verdict = line.substr(0, sp);
    out.substring = sp == std::string::npos ? "" : line.substr(sp + 1);
    if (verdict != "pass" && verdict != "fail") {
        err = "EXPECT must be '<pass|fail> [substring]', got '" + line +
              "'";
        return false;
    }
    out.pass = verdict == "pass";
    return true;
}

/** Subdirectories of a fixture corpus, sorted for determinism. */
inline std::vector<fs::path>
fixtureCases(const fs::path &dir)
{
    std::vector<fs::path> cases;
    std::error_code ec;
    for (const auto &entry : fs::directory_iterator(dir, ec))
        if (entry.is_directory())
            cases.push_back(entry.path());
    std::sort(cases.begin(), cases.end());
    return cases;
}

// Subcommand entry points (each parses its own arguments).
int detlintMain(const std::vector<std::string> &args);
int layerlintMain(const std::vector<std::string> &args);
int lockorderMain(const std::vector<std::string> &args);

} // namespace qoslint

#endif // CMPQOS_TOOLS_QOSLINT_HH
