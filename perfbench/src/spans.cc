#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <fstream>
#include <utility>

namespace perfbench
{

double
hostSeconds()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

std::uint32_t
SpanLog::open(const char *name, std::uint32_t parent, std::uint64_t id)
{
    const double t = hostSeconds();
    return add(name, parent, id, t, t);
}

void
SpanLog::close(std::uint32_t index)
{
    spans_[index].end = hostSeconds();
}

std::uint32_t
SpanLog::add(const char *name, std::uint32_t parent, std::uint64_t id,
             double start, double end)
{
    spans_.push_back(Span{name, parent, id, start, end});
    return static_cast<std::uint32_t>(spans_.size() - 1);
}

std::vector<double>
SpanLog::selfTimes() const
{
    std::vector<std::vector<std::uint32_t>> children(spans_.size());
    for (std::uint32_t i = 0; i < spans_.size(); ++i)
        if (spans_[i].parent != kRoot && spans_[i].parent < spans_.size())
            children[spans_[i].parent].push_back(i);

    std::vector<double> self(spans_.size(), 0.0);
    std::vector<std::pair<double, double>> cover;
    for (std::uint32_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        cover.clear();
        for (std::uint32_t c : children[i]) {
            const double a = std::max(spans_[c].start, s.start);
            const double b = std::min(spans_[c].end, s.end);
            if (b > a)
                cover.emplace_back(a, b);
        }
        std::sort(cover.begin(), cover.end());
        double covered = 0.0;
        double run_start = 0.0;
        double run_end = -1.0;
        bool open_run = false;
        for (const auto &[a, b] : cover) {
            if (!open_run || a > run_end) {
                if (open_run)
                    covered += run_end - run_start;
                run_start = a;
                run_end = b;
                open_run = true;
            } else {
                run_end = std::max(run_end, b);
            }
        }
        if (open_run)
            covered += run_end - run_start;
        self[i] = s.duration() - covered;
    }
    return self;
}

std::vector<double>
SpanLog::durations(std::string_view name) const
{
    std::vector<double> out;
    for (const Span &s : spans_)
        if (name == s.name)
            out.push_back(s.duration());
    return out;
}

double
SpanLog::selfTotal(std::string_view name) const
{
    const std::vector<double> self = selfTimes();
    double total = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (name == spans_[i].name)
            total += self[i];
    return total;
}

bool
SpanLog::writeChromeTrace(const std::string &path,
                          const std::string &process_name) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    double origin = 0.0;
    for (std::size_t i = 0; i < spans_.size(); ++i)
        if (i == 0 || spans_[i].start < origin)
            origin = spans_[i].start;
    // Span names and the process name are benchmark-chosen ASCII
    // identifiers, so they need no JSON escaping.
    out << "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n"
        << "{\"name\":\"process_name\",\"ph\":\"M\",\"pid\":1,"
           "\"tid\":1,\"args\":{\"name\":\""
        << process_name << "\"}}";
    char buf[320];
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const Span &s = spans_[i];
        const long long parent =
            s.parent == kRoot ? -1 : static_cast<long long>(s.parent);
        std::snprintf(buf, sizeof(buf),
                      ",\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                      "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{"
                      "\"span\":%zu,\"parent\":%lld,\"id\":%llu}}",
                      s.name, (s.start - origin) * 1e6,
                      s.duration() * 1e6, i, parent,
                      static_cast<unsigned long long>(s.id));
        out << buf;
    }
    out << "\n]}\n";
    return static_cast<bool>(out.flush());
}

} // namespace perfbench
