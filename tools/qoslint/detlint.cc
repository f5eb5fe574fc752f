/**
 * @file
 * detlint — the determinism analyzer.
 *
 * The repo's core guarantee is byte-identical cluster runs, traces
 * and fault reproducers for a given seed at any worker-thread count.
 * That property is enforced dynamically by the fingerprint tests;
 * detlint enforces the other half statically: no construct that can
 * inject host state (wall clocks, process RNGs, thread ids, pointer
 * values, hash-order iteration) may appear in deterministic paths.
 *
 * Usage:
 *   qoslint detlint <path>...     lint files / directory trees
 *   qoslint detlint --self-test <dir>
 *                                 every line tagged
 *                                 `// qoslint:expect(<rule>)` must
 *                                 fire exactly that rule, and nothing
 *                                 else may fire
 *   qoslint detlint --list-rules  print the rule table
 *
 * Escape hatch: `// qoslint:allow(<rule>): <reason>` on the same
 * line, or on a comment line immediately above the construct,
 * suppresses the named rule there (see qoslint.hh).
 *
 * Matching runs on code only — comments and string literals are
 * stripped first (including raw string literals and backslash-
 * continued // comments; see lint_util.hh) — so prose about
 * "steady_clock" never trips a rule.
 */

#include <fstream>
#include <map>

#include "qoslint.hh"

namespace qoslint
{
namespace
{

struct Rule
{
    const char *id;
    const char *what;
    std::regex re;
    /** Only enforced in export/fingerprint/trace code (see below). */
    bool exportOnly = false;
};

// Identifier-boundary prefix that still lets `std::time(` match while
// excluding member calls (`x.time(`, `p->time(`) and longer
// identifiers (`virtualTime(`).
#define CALL_BOUNDARY "(^|[^A-Za-z0-9_.>])"

const std::vector<Rule> &
rules()
{
    static const std::vector<Rule> r = {
        {"random-device",
         "std::random_device draws host entropy; seed a cmpqos::Rng "
         "stream instead",
         std::regex(R"(\brandom_device\b)")},
        {"rand",
         "rand()/srand() use hidden process-global state; use the "
         "seeded cmpqos::Rng streams",
         std::regex(CALL_BOUNDARY R"(s?rand\s*\()")},
        {"time",
         "time()/clock() read host time; virtual time comes from the "
         "Simulation clock",
         std::regex(CALL_BOUNDARY R"((time|clock)\s*\()")},
        {"wall-clock",
         "std::chrono clocks read host time; deterministic paths must "
         "use virtual cycles",
         std::regex(
             R"(\b(system_clock|steady_clock|high_resolution_clock)\b)")},
        {"thread-id",
         "thread ids vary run to run; deterministic paths must not "
         "branch on scheduling identity",
         std::regex(R"(this_thread\s*::\s*get_id|\bthread\s*::\s*id\b)"
                    R"(|\bpthread_self\b|\bgettid\b)")},
        {"pointer-order",
         "ordered containers keyed by pointers iterate in allocation "
         "order; key by a stable id",
         std::regex(R"(\bstd\s*::\s*(multi)?(map|set)\s*<[^,>]*\*)")},
        {"unordered-export",
         "unordered containers in export/fingerprint/trace code risk "
         "hash-order iteration; use a sorted structure",
         std::regex(R"(\bunordered_(multi)?(map|set)\s*<)"),
         /*exportOnly=*/true},
    };
    return r;
}

#undef CALL_BOUNDARY

/**
 * Files whose output feeds fingerprints, metrics exports or trace
 * sinks: everything under a telemetry/ directory plus any file whose
 * name suggests an exporter. The unordered-export rule applies only
 * here; elsewhere unordered containers are fine as long as nothing
 * iterates them into externally visible order.
 */
bool
isExportPath(const fs::path &p)
{
    for (const auto &part : p)
        if (part == "telemetry")
            return true;
    const std::string name = p.filename().string();
    for (const char *kw :
         {"metrics", "report", "sink", "table", "export", "fingerprint"})
        if (name.find(kw) != std::string::npos)
            return true;
    return false;
}

struct FileScan
{
    std::vector<Violation> violations;
    /** line -> expected rules (self-test mode). */
    std::map<int, std::set<std::string>> expected;
};

FileScan
scanFile(const fs::path &path)
{
    FileScan result;
    std::ifstream in(path);
    if (!in) {
        result.violations.push_back(
            {path.string(), 0, "io", "cannot open file"});
        return result;
    }
    const bool export_path = isExportPath(path);
    lintutil::StripState strip;
    // Directives on pure-comment lines apply to the next code line
    // (and survive a multi-line comment, so a wrapped justification
    // works).
    std::set<std::string> pending_allow;
    std::set<std::string> pending_expect;
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const lintutil::Directives dir = parseDirectives(line);
        for (const std::string &err : dir.errors)
            result.violations.push_back(
                {path.string(), lineno, "qoslint-directive", err});

        const std::string code = lintutil::stripLine(line, strip);
        const bool code_blank =
            code.find_first_not_of(" \t") == std::string::npos;
        if (code_blank) {
            // Comment/blank line: its directives arm for the next
            // code line; already-armed ones stay armed.
            pending_allow.insert(dir.allow.begin(), dir.allow.end());
            pending_expect.insert(dir.expect.begin(),
                                  dir.expect.end());
            continue;
        }

        std::set<std::string> allowed = dir.allow;
        allowed.insert(pending_allow.begin(), pending_allow.end());
        pending_allow.clear();
        std::set<std::string> expected = dir.expect;
        expected.insert(pending_expect.begin(), pending_expect.end());
        pending_expect.clear();
        if (!expected.empty())
            result.expected[lineno] = expected;

        for (const Rule &r : rules()) {
            if (r.exportOnly && !export_path)
                continue;
            if (!std::regex_search(code, r.re))
                continue;
            if (allowed.count(r.id))
                continue;
            result.violations.push_back(
                {path.string(), lineno, r.id, r.what});
        }
    }
    return result;
}

int
lint(const std::vector<std::string> &paths)
{
    bool ok = true;
    const std::vector<fs::path> files =
        lintutil::collectFiles(paths, ok, "detlint");
    if (!ok)
        return 2;
    std::vector<Violation> all;
    for (const fs::path &f : files) {
        FileScan scan = scanFile(f);
        all.insert(all.end(), scan.violations.begin(),
                   scan.violations.end());
    }
    printViolations(all);
    std::printf("detlint: %zu file(s), %zu violation(s)\n",
                files.size(), all.size());
    return all.empty() ? 0 : 1;
}

/**
 * Fixture self-test: every qoslint:expect(<rule>) line must fire
 * exactly those rules, and no unexpected violation may fire anywhere
 * in the corpus. Proves each rule detects its known-bad snippet and
 * that the allow pragma suppresses (fixtures with expect-free allowed
 * lines pass only if the allow works).
 */
int
detlintSelfTest(const std::string &dir)
{
    bool ok = true;
    const std::vector<fs::path> files =
        lintutil::collectFiles({dir}, ok, "detlint");
    if (!ok)
        return 2;
    if (files.empty()) {
        std::fprintf(stderr, "detlint: no fixtures under %s\n",
                     dir.c_str());
        return 2;
    }
    int failures = 0;
    std::size_t checked = 0;
    for (const fs::path &f : files) {
        FileScan scan = scanFile(f);
        std::map<int, std::set<std::string>> fired;
        for (const Violation &v : scan.violations)
            fired[v.line].insert(v.rule);
        for (const auto &[line, expected] : scan.expected) {
            checked += expected.size();
            for (const std::string &rule : expected) {
                if (!fired[line].count(rule)) {
                    std::printf(
                        "FAIL %s:%d: expected [%s] did not fire\n",
                        f.string().c_str(), line, rule.c_str());
                    ++failures;
                }
            }
        }
        for (const auto &[line, got] : fired) {
            auto it = scan.expected.find(line);
            for (const std::string &rule : got) {
                if (it == scan.expected.end() || !it->second.count(rule)) {
                    std::printf(
                        "FAIL %s:%d: unexpected [%s] fired\n",
                        f.string().c_str(), line, rule.c_str());
                    ++failures;
                }
            }
        }
    }
    std::printf(
        "qoslint detlint fixtures: %zu file(s), %zu expectation(s), %d "
        "failure(s)\n",
        files.size(), checked, failures);
    if (checked == 0) {
        std::fprintf(stderr,
                     "detlint: fixture corpus has no expectations\n");
        return 2;
    }
    return failures == 0 ? 0 : 1;
}

} // namespace

bool
detlintRule(const std::string &id)
{
    for (const Rule &r : rules())
        if (id == r.id)
            return true;
    return false;
}

int
detlintMain(const std::vector<std::string> &args)
{
    if (args.size() == 2 && args[0] == "--self-test")
        return detlintSelfTest(args[1]);
    if (args.size() == 1 && args[0] == "--list-rules") {
        for (const Rule &r : rules())
            std::printf("%-17s %s%s\n", r.id, r.what,
                        r.exportOnly ? " (export paths only)" : "");
        return 0;
    }
    if (args.empty() || args[0].rfind("--", 0) == 0) {
        std::fprintf(stderr,
                     "usage: qoslint detlint <path>...\n"
                     "       qoslint detlint --self-test <fixture-dir>\n"
                     "       qoslint detlint --list-rules\n");
        return 2;
    }
    return lint(args);
}

} // namespace qoslint
