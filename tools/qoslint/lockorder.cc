/**
 * @file
 * lockorder — the lock-hierarchy analyzer.
 *
 * Deadlock freedom in the daemon and the federation engine rests on
 * a global acquisition order over the annotated cmpqos::Mutex sites.
 * lockorder extracts that order textually and rejects cycles:
 *
 *  - pass 1 collects declared `Mutex <name>` members and the
 *    CMPQOS_REQUIRES(<mu>) annotations on function declarations;
 *  - pass 2 walks function bodies tracking brace depth, records an
 *    edge A -> B whenever `MutexLock(B)` runs while A is held —
 *    either by an enclosing MutexLock still in scope or because the
 *    enclosing function REQUIRES(A) — and honours explicit
 *    `.unlock()` / `.lock()` on the guard;
 *  - a DFS over the merged edge set rejects any cycle (including the
 *    self-edge of re-acquiring a mutex already held).
 *
 * Mutexes are identified by their member name (`tx_->mu` and
 * `rx_->mu` are both node `mu`), so nesting two instances of the
 * same class-level lock is deliberately flagged: per-instance
 * ordering cannot be checked textually, and the codebase's idiom is
 * to never hold two instances of one member lock at once.
 *
 * The companion rule `raw-mutex` bans std::mutex / std::lock_guard /
 * std::unique_lock / std::scoped_lock outside the annotated wrapper:
 * a raw lock is invisible both to this analyzer and to Clang's
 * thread-safety analysis, so it must not exist in src/.
 *
 * Escape hatches: `// qoslint:allow(lock-order): <reason>` suppresses
 * edge recording for acquisitions on that line;
 * `// qoslint:allow(raw-mutex): <reason>` sanctions a raw primitive
 * (the cmpqos::Mutex wrapper itself is the one legitimate site).
 *
 * Function attribution is heuristic (the nearest preceding
 * `X::name(` before an opening brace); it is deliberately simple and
 * errs toward missing REQUIRES seeding rather than inventing edges.
 */

#include <map>
#include <sstream>

#include "qoslint.hh"

namespace qoslint
{
namespace
{

std::string
lastIdentifier(const std::string &expr)
{
    std::size_t end = expr.size();
    while (end > 0 &&
           !(std::isalnum(static_cast<unsigned char>(expr[end - 1])) ||
             expr[end - 1] == '_'))
        --end;
    std::size_t begin = end;
    while (begin > 0 &&
           (std::isalnum(static_cast<unsigned char>(expr[begin - 1])) ||
            expr[begin - 1] == '_'))
        --begin;
    return expr.substr(begin, end - begin);
}

struct Edge
{
    std::string from;
    std::string to;
    std::string file;
    int line = 0;

    bool
    operator<(const Edge &o) const
    {
        return std::tie(from, to) < std::tie(o.from, o.to);
    }
};

struct Corpus
{
    std::set<std::string> mutexes;
    /** function name -> mutexes its declaration REQUIRES. */
    std::map<std::string, std::set<std::string>> requires_;
};

std::string
strippedWhole(const fs::path &f, bool keep_strings,
              std::vector<Violation> &all)
{
    std::string text;
    if (!lintutil::readFile(f, text)) {
        all.push_back({f.string(), 0, "lock-order", "cannot read "
                                                    "file"});
        return "";
    }
    lintutil::StripState st;
    std::istringstream in(text);
    std::string line, out;
    while (std::getline(in, line)) {
        out += lintutil::stripLine(line, st, keep_strings);
        out += '\n';
    }
    return out;
}

void
collectDeclarations(const fs::path &f, Corpus &corpus,
                    std::vector<Violation> &all)
{
    const std::string text = strippedWhole(f, false, all);
    static const std::regex mutex_re(R"(\bMutex\s+(\w+)\s*[;{=])");
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), mutex_re);
         it != std::sregex_iterator(); ++it)
        corpus.mutexes.insert((*it)[1]);
    static const std::regex req_re(
        R"(([A-Za-z_]\w*)\s*\(([^()]|\([^()]*\))*\)\s*(const\s*)?CMPQOS_REQUIRES\s*\(([^)]*)\))");
    for (auto it =
             std::sregex_iterator(text.begin(), text.end(), req_re);
         it != std::sregex_iterator(); ++it) {
        const std::string fn = (*it)[1];
        std::string list = (*it)[4];
        std::size_t pos = 0;
        while (pos <= list.size()) {
            const std::size_t comma = list.find(',', pos);
            const std::string arg = list.substr(
                pos, comma == std::string::npos ? comma : comma - pos);
            const std::string id = lastIdentifier(arg);
            if (!id.empty())
                corpus.requires_[fn].insert(id);
            if (comma == std::string::npos)
                break;
            pos = comma + 1;
        }
    }
}

struct LineEvent
{
    std::size_t pos;
    enum Kind
    {
        Acquire,
        Unlock,
        Relock,
        FnName
    } kind;
    std::string var;  // guard variable (Acquire/Unlock/Relock)
    std::string node; // mutex node id (Acquire) or fn name (FnName)
};

void
scanBodies(const fs::path &f, const Corpus &corpus,
           std::vector<Edge> &edges, std::vector<Violation> &all)
{
    std::string text;
    if (!lintutil::readFile(f, text))
        return; // already reported by pass 1
    static const std::regex lock_re(
        R"(\bMutexLock\s+(\w+)\s*[({]\s*([^);}]+)[)}])");
    static const std::regex unlock_re(
        R"(\b(\w+)\s*\.\s*unlock\s*\(\s*\))");
    static const std::regex relock_re(
        R"(\b(\w+)\s*\.\s*lock\s*\(\s*\))");
    static const std::regex fn_re(
        R"(([A-Za-z_]\w*)\s*::\s*~?([A-Za-z_]\w*)\s*\()");
    static const std::regex raw_re(
        R"(\bstd\s*::\s*(mutex|timed_mutex|recursive_mutex|shared_mutex|lock_guard|unique_lock|scoped_lock)\b)");

    struct ActiveLock
    {
        std::string var;
        std::string node;
        int depth;
        bool released = false;
    };
    struct Frame
    {
        int depth;
        std::set<std::string> seeded;
    };
    std::vector<ActiveLock> locks;
    std::vector<Frame> frames;
    int depth = 0;
    std::string pending_fn;
    std::set<std::string> pending_allow;

    lintutil::StripState st;
    std::istringstream in(text);
    std::string raw_line;
    int lineno = 0;
    while (std::getline(in, raw_line)) {
        ++lineno;
        const lintutil::Directives dir = parseDirectives(raw_line);
        for (const std::string &e : dir.errors)
            all.push_back(
                {f.string(), lineno, "qoslint-directive", e});
        const std::string code = lintutil::stripLine(raw_line, st);
        const bool blank =
            code.find_first_not_of(" \t") == std::string::npos;
        if (blank) {
            pending_allow.insert(dir.allow.begin(), dir.allow.end());
            continue;
        }
        std::set<std::string> allowed = dir.allow;
        allowed.insert(pending_allow.begin(), pending_allow.end());
        pending_allow.clear();

        if (std::regex_search(code, raw_re) &&
            !allowed.count("raw-mutex"))
            all.push_back(
                {f.string(), lineno, "raw-mutex",
                 "raw std::mutex-family primitive is invisible to "
                 "thread-safety and lock-order analysis; use "
                 "cmpqos::Mutex / MutexLock (common/annotations.hh)"});

        // Gather positioned events, then replay them interleaved
        // with brace tracking so same-line scopes behave.
        std::vector<LineEvent> events;
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            lock_re);
             it != std::sregex_iterator(); ++it)
            events.push_back({static_cast<std::size_t>(it->position(0)),
                              LineEvent::Acquire, (*it)[1],
                              lastIdentifier((*it)[2])});
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            unlock_re);
             it != std::sregex_iterator(); ++it)
            events.push_back({static_cast<std::size_t>(it->position(0)),
                              LineEvent::Unlock, (*it)[1], ""});
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            relock_re);
             it != std::sregex_iterator(); ++it)
            events.push_back({static_cast<std::size_t>(it->position(0)),
                              LineEvent::Relock, (*it)[1], ""});
        for (auto it = std::sregex_iterator(code.begin(), code.end(),
                                            fn_re);
             it != std::sregex_iterator(); ++it)
            events.push_back({static_cast<std::size_t>(it->position(0)),
                              LineEvent::FnName, "", (*it)[2]});
        std::sort(events.begin(), events.end(),
                  [](const LineEvent &a, const LineEvent &b) {
                      return a.pos < b.pos;
                  });
        std::size_t next_event = 0;
        for (std::size_t i = 0; i <= code.size(); ++i) {
            while (next_event < events.size() &&
                   events[next_event].pos == i) {
                const LineEvent &ev = events[next_event++];
                switch (ev.kind) {
                case LineEvent::FnName:
                    pending_fn = ev.node;
                    break;
                case LineEvent::Unlock:
                case LineEvent::Relock:
                    for (ActiveLock &l : locks)
                        if (l.var == ev.var)
                            l.released = ev.kind == LineEvent::Unlock;
                    break;
                case LineEvent::Acquire: {
                    std::set<std::string> held;
                    for (const Frame &fr : frames)
                        held.insert(fr.seeded.begin(),
                                    fr.seeded.end());
                    for (const ActiveLock &l : locks)
                        if (!l.released)
                            held.insert(l.node);
                    if (!allowed.count("lock-order")) {
                        if (held.count(ev.node))
                            all.push_back(
                                {f.string(), lineno, "lock-order",
                                 "acquires '" + ev.node +
                                     "' while already holding it"});
                        for (const std::string &h : held)
                            if (h != ev.node)
                                edges.push_back({h, ev.node,
                                                 f.string(), lineno});
                    }
                    locks.push_back(
                        {ev.var, ev.node, depth, false});
                    break;
                }
                }
            }
            if (i == code.size())
                break;
            if (code[i] == '{') {
                ++depth;
                if (!pending_fn.empty()) {
                    Frame fr;
                    fr.depth = depth;
                    const auto rq = corpus.requires_.find(pending_fn);
                    if (rq != corpus.requires_.end())
                        fr.seeded = rq->second;
                    frames.push_back(std::move(fr));
                    pending_fn.clear();
                }
            } else if (code[i] == '}') {
                --depth;
                while (!locks.empty() && locks.back().depth > depth)
                    locks.pop_back();
                while (!frames.empty() &&
                       frames.back().depth > depth)
                    frames.pop_back();
            } else if (code[i] == ';') {
                pending_fn.clear();
            }
        }
    }
}

/** DFS over the merged edge set; any back edge is a cycle. */
void
findCycles(std::vector<Edge> edges, std::vector<Violation> &all)
{
    std::sort(edges.begin(), edges.end());
    edges.erase(std::unique(edges.begin(), edges.end(),
                            [](const Edge &a, const Edge &b) {
                                return a.from == b.from &&
                                       a.to == b.to;
                            }),
                edges.end());
    std::map<std::string, std::vector<const Edge *>> out;
    std::set<std::string> nodes;
    for (const Edge &e : edges) {
        out[e.from].push_back(&e);
        nodes.insert(e.from);
        nodes.insert(e.to);
    }
    std::map<std::string, int> state; // 0 new, 1 visiting, 2 done
    for (const std::string &start : nodes) {
        if (state[start])
            continue;
        std::vector<std::pair<std::string, std::size_t>> path;
        state[start] = 1;
        path.emplace_back(start, 0);
        while (!path.empty()) {
            auto &[node, idx] = path.back();
            const auto &succ = out[node];
            if (idx >= succ.size()) {
                state[node] = 2;
                path.pop_back();
                continue;
            }
            const Edge *e = succ[idx++];
            if (state[e->to] == 1) {
                // Reconstruct the cycle portion of the path.
                std::string desc = "lock-order cycle:";
                bool in_cycle = false;
                const Edge *first_edge = e;
                for (std::size_t p = 0; p + 1 <= path.size(); ++p) {
                    if (path[p].first == e->to)
                        in_cycle = true;
                    if (!in_cycle || p + 1 >= path.size())
                        continue;
                    for (const Edge *cand : out[path[p].first])
                        if (cand->to == path[p + 1].first) {
                            desc += " " + cand->from + " -> " +
                                    cand->to + " (" + cand->file +
                                    ":" + std::to_string(cand->line) +
                                    ")";
                            if (first_edge == e)
                                first_edge = cand;
                            break;
                        }
                }
                desc += " " + e->from + " -> " + e->to + " (" +
                        e->file + ":" + std::to_string(e->line) + ")";
                all.push_back({first_edge->file, first_edge->line,
                               "lock-order", desc});
                continue;
            }
            if (state[e->to] == 0) {
                state[e->to] = 1;
                path.emplace_back(e->to, 0);
            }
        }
    }
}

int
runLockorder(const std::vector<std::string> &roots, bool dump)
{
    bool ok = true;
    const std::vector<fs::path> files =
        lintutil::collectFiles(roots, ok, "lockorder");
    if (!ok)
        return 2;
    std::vector<Violation> all;
    Corpus corpus;
    for (const fs::path &f : files)
        collectDeclarations(f, corpus, all);
    std::vector<Edge> edges;
    for (const fs::path &f : files)
        scanBodies(f, corpus, edges, all);
    findCycles(edges, all);
    printViolations(all);
    if (dump) {
        std::vector<Edge> uniq = edges;
        std::sort(uniq.begin(), uniq.end());
        uniq.erase(std::unique(uniq.begin(), uniq.end(),
                               [](const Edge &a, const Edge &b) {
                                   return a.from == b.from &&
                                          a.to == b.to;
                               }),
                   uniq.end());
        for (const Edge &e : uniq)
            std::printf("lockorder: %s -> %s (%s:%d)\n",
                        e.from.c_str(), e.to.c_str(), e.file.c_str(),
                        e.line);
    }
    std::printf("lockorder: %zu file(s), %zu mutex(es), %zu edge(s), "
                "%zu violation(s)\n",
                files.size(), corpus.mutexes.size(), edges.size(),
                all.size());
    return all.empty() ? 0 : 1;
}

/** Fixture self-test: each case has a src/ tree and an EXPECT file
 *  `<pass|fail> [substring]`. */
int
lockorderSelfTest(const std::string &dir)
{
    const std::vector<fs::path> cases = fixtureCases(dir);
    if (cases.empty()) {
        std::fprintf(stderr, "lockorder: no fixture cases under %s\n",
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
        bool io_ok = true;
        const std::vector<fs::path> files = lintutil::collectFiles(
            {(c / "src").string()}, io_ok, "lockorder");
        std::vector<Violation> found;
        Corpus corpus;
        for (const fs::path &f : files)
            collectDeclarations(f, corpus, found);
        std::vector<Edge> edges;
        for (const fs::path &f : files)
            scanBodies(f, corpus, edges, found);
        findCycles(edges, found);
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
    std::printf("qoslint lockorder fixtures: %zu case(s), %d "
                "failure(s)\n",
                cases.size(), failures);
    return failures == 0 ? 0 : 1;
}

} // namespace

int
lockorderMain(const std::vector<std::string> &args)
{
    if (args.size() == 2 && args[0] == "--self-test")
        return lockorderSelfTest(args[1]);
    bool dump = false;
    std::vector<std::string> roots;
    for (const std::string &a : args) {
        if (a == "--dump")
            dump = true;
        else
            roots.push_back(a);
    }
    if (roots.empty()) {
        std::fprintf(stderr,
                     "usage: qoslint lockorder [--dump] <root>...\n"
                     "       qoslint lockorder --self-test "
                     "<fixture-dir>\n");
        return 2;
    }
    return runLockorder(roots, dump);
}

} // namespace qoslint
