/**
 * @file
 * layerlint — the module-layering analyzer.
 *
 * src/ is organised as a DAG of modules (common at the bottom,
 * service at the top); the build would happily link a cycle, so the
 * architecture only holds if something checks it. layerlint reads
 * the declared DAG from a config file (docs/layers.conf) and walks
 * every `#include "module/..."` edge in the scanned trees: an edge
 * not in the config, an include of an undeclared module, or a source
 * file living in an undeclared module is a finding.
 *
 * The config is also validated: a cycle in the declared DAG itself is
 * a configuration error (exit 2), so the allowlist cannot quietly
 * legalise what it exists to prevent.
 *
 * Escape hatch: `// qoslint:allow(layering): <reason>` on the include
 * line or the comment line above (the one qoslint pragma).
 *
 * Config format, one module per line:
 *     module: dep dep ...
 * `#` starts a comment. Self-includes are always legal and not
 * declared.
 */

#include <map>
#include <sstream>

#include "qoslint.hh"

namespace qoslint
{
namespace
{

using LayerConfig = std::map<std::string, std::set<std::string>>;

bool
loadConfig(const fs::path &file, LayerConfig &cfg, std::string &err)
{
    std::string text;
    if (!lintutil::readFile(file, text)) {
        err = "cannot read layer config " + file.string();
        return false;
    }
    std::istringstream in(text);
    std::string line;
    int lineno = 0;
    while (std::getline(in, line)) {
        ++lineno;
        const std::size_t hash = line.find('#');
        if (hash != std::string::npos)
            line = line.substr(0, hash);
        std::istringstream ls(line);
        std::string head;
        if (!(ls >> head))
            continue;
        if (head.back() != ':') {
            err = file.string() + ":" + std::to_string(lineno) +
                  ": expected 'module: deps...'";
            return false;
        }
        const std::string mod = head.substr(0, head.size() - 1);
        if (cfg.count(mod)) {
            err = file.string() + ":" + std::to_string(lineno) +
                  ": duplicate module '" + mod + "'";
            return false;
        }
        std::set<std::string> &deps = cfg[mod];
        std::string d;
        while (ls >> d)
            deps.insert(d);
    }
    if (cfg.empty()) {
        err = file.string() + ": empty layer config";
        return false;
    }
    // The declared DAG must itself be acyclic, and may only name
    // declared modules as dependencies.
    for (const auto &[mod, deps] : cfg)
        for (const std::string &d : deps)
            if (!cfg.count(d)) {
                err = file.string() + ": module '" + mod +
                      "' depends on undeclared module '" + d + "'";
                return false;
            }
    std::map<std::string, int> state; // 0 new, 1 visiting, 2 done
    std::vector<std::string> stack;
    // Iterative DFS with an explicit stack of (node, next-dep) pairs.
    for (const auto &[start, ignored] : cfg) {
        if (state[start])
            continue;
        std::vector<std::pair<std::string, std::set<std::string>::const_iterator>>
            path;
        state[start] = 1;
        path.emplace_back(start, cfg.at(start).begin());
        while (!path.empty()) {
            auto &[node, it] = path.back();
            if (it == cfg.at(node).end()) {
                state[node] = 2;
                path.pop_back();
                continue;
            }
            const std::string dep = *it++;
            if (state[dep] == 1) {
                err = file.string() +
                      ": declared layer DAG has a cycle through '" +
                      dep + "'";
                return false;
            }
            if (state[dep] == 0) {
                state[dep] = 1;
                path.emplace_back(dep, cfg.at(dep).begin());
            }
        }
    }
    return true;
}

std::string
joinSorted(const std::set<std::string> &s)
{
    std::string out;
    for (const std::string &x : s)
        out += (out.empty() ? "" : " ") + x;
    return out.empty() ? "(nothing)" : out;
}

void
scanTree(const fs::path &root, const LayerConfig &cfg,
         std::vector<Violation> &all, std::size_t &nfiles, bool &ok)
{
    const std::vector<fs::path> files =
        lintutil::collectFiles({root.string()}, ok, "layerlint");
    nfiles += files.size();
    static const std::regex inc_code_re(R"(^\s*#\s*include\b)");
    static const std::regex inc_path_re(
        R"re(^\s*#\s*include\s*"([^"]+)")re");
    for (const fs::path &f : files) {
        std::error_code ec;
        const fs::path rel = fs::relative(f, root, ec);
        if (ec || rel.begin() == rel.end())
            continue;
        const std::string module = rel.begin()->string();
        const bool file_in_module =
            std::next(rel.begin()) != rel.end();
        if (!file_in_module)
            continue; // file directly under the root: no module
        const bool module_known = cfg.count(module) != 0;
        if (!module_known)
            all.push_back({f.string(), 1, "layering",
                           "module '" + module +
                               "' is not declared in the layer "
                               "config"});
        std::string text;
        if (!lintutil::readFile(f, text)) {
            all.push_back({f.string(), 0, "layering",
                           "cannot read file"});
            continue;
        }
        lintutil::StripState code_st, str_st;
        std::set<std::string> pending_allow;
        std::istringstream in(text);
        std::string line;
        int lineno = 0;
        while (std::getline(in, line)) {
            ++lineno;
            const lintutil::Directives dir = parseDirectives(line);
            for (const std::string &e : dir.errors)
                all.push_back(
                    {f.string(), lineno, "qoslint-directive", e});
            const std::string code =
                lintutil::stripLine(line, code_st);
            // Run a strings-kept strip in lockstep: the include path
            // is a string literal, but the directive itself must
            // survive string stripping or the line is raw-string
            // data that merely looks like an include.
            const std::string with_str =
                lintutil::stripLine(line, str_st, true);
            const bool blank =
                code.find_first_not_of(" \t") == std::string::npos;
            if (blank && !std::regex_search(code, inc_code_re)) {
                pending_allow.insert(dir.allow.begin(),
                                     dir.allow.end());
                continue;
            }
            std::set<std::string> allowed = dir.allow;
            allowed.insert(pending_allow.begin(),
                           pending_allow.end());
            pending_allow.clear();
            std::smatch m;
            if (!std::regex_search(code, inc_code_re) ||
                !std::regex_search(with_str, m, inc_path_re))
                continue;
            const std::string inc = m[1];
            const std::size_t slash = inc.find('/');
            if (slash == std::string::npos)
                continue; // same-directory include: same module
            const std::string target = inc.substr(0, slash);
            if (target == module || !module_known)
                continue;
            if (allowed.count("layering"))
                continue;
            if (!cfg.count(target)) {
                all.push_back({f.string(), lineno, "layering",
                               "include of '" + inc +
                                   "': module '" + target +
                                   "' is not in the layer config"});
                continue;
            }
            if (!cfg.at(module).count(target))
                all.push_back(
                    {f.string(), lineno, "layering",
                     "module '" + module + "' may not include '" +
                         target + "' (allowed: " +
                         joinSorted(cfg.at(module)) + ")"});
        }
    }
}

int
runLayerlint(const std::string &config,
             const std::vector<std::string> &roots)
{
    LayerConfig cfg;
    std::string err;
    if (!loadConfig(config, cfg, err)) {
        std::fprintf(stderr, "qoslint layerlint: %s\n", err.c_str());
        return 2;
    }
    bool ok = true;
    std::size_t nfiles = 0;
    std::vector<Violation> all;
    for (const std::string &r : roots)
        scanTree(r, cfg, all, nfiles, ok);
    if (!ok)
        return 2;
    printViolations(all);
    std::printf("layerlint: %zu file(s), %zu module(s), %zu "
                "violation(s)\n",
                nfiles, cfg.size(), all.size());
    return all.empty() ? 0 : 1;
}

/** Fixture self-test: each case has layers.conf, a src/ tree, and an
 *  EXPECT file `<pass|fail> [substring]`. */
int
layerlintSelfTest(const std::string &dir)
{
    const std::vector<fs::path> cases = fixtureCases(dir);
    if (cases.empty()) {
        std::fprintf(stderr, "layerlint: no fixture cases under %s\n",
                     dir.c_str());
        return 2;
    }
    int failures = 0;
    for (const fs::path &c : cases) {
        const std::string label = c.filename().string();
        Expectation exp;
        std::string err;
        if (!readExpectation(c, exp, err)) {
            std::printf("FAIL %s: %s\n", label.c_str(), err.c_str());
            ++failures;
            continue;
        }
        // Capture by re-running through a pipe would drag in POSIX
        // plumbing; instead violations are recomputed here directly.
        LayerConfig cfg;
        if (!loadConfig(c / "layers.conf", cfg, err)) {
            const bool ok = !exp.pass &&
                            (exp.substring.empty() ||
                             err.find(exp.substring) !=
                                 std::string::npos);
            if (!ok) {
                std::printf("FAIL %s: config error: %s\n",
                            label.c_str(), err.c_str());
                ++failures;
            }
            continue;
        }
        bool io_ok = true;
        std::size_t nfiles = 0;
        std::vector<Violation> found;
        scanTree(c / "src", cfg, found, nfiles, io_ok);
        std::sort(found.begin(), found.end());
        const bool passed = io_ok && found.empty();
        bool ok = passed == exp.pass;
        if (ok && !exp.substring.empty()) {
            bool seen = false;
            for (const Violation &v : found) {
                const std::string line =
                    "[" + v.rule + "] " + v.what;
                seen = seen ||
                       line.find(exp.substring) != std::string::npos;
            }
            ok = seen;
        }
        if (!ok) {
            std::printf("FAIL %s: expected %s, scan %s\n",
                        label.c_str(), exp.pass ? "pass" : "fail",
                        passed ? "passed" : "failed");
            for (const Violation &v : found)
                std::printf("  %s:%d: [%s] %s\n", v.file.c_str(),
                            v.line, v.rule.c_str(), v.what.c_str());
            ++failures;
        }
    }
    std::printf("qoslint layerlint fixtures: %zu case(s), %d "
                "failure(s)\n",
                cases.size(), failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
layerlintMain(const std::vector<std::string> &args)
{
    if (args.size() == 2 && args[0] == "--self-test")
        return layerlintSelfTest(args[1]);
    std::string config;
    std::vector<std::string> roots;
    for (std::size_t i = 0; i < args.size(); ++i) {
        if (args[i] == "--config" && i + 1 < args.size())
            config = args[++i];
        else
            roots.push_back(args[i]);
    }
    if (config.empty() || roots.empty()) {
        std::fprintf(stderr,
                     "usage: qoslint layerlint --config <layers.conf> "
                     "<root>...\n       qoslint layerlint --self-test "
                     "<fixture-dir>\n");
        return 2;
    }
    return runLayerlint(config, roots);
}

} // namespace qoslint
