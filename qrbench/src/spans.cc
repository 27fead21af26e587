#include "spans.hh"

#include <cstdio>

namespace qrb
{

std::int64_t
SpanLog::nanos(Clock::time_point t) const
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               t - _epoch)
        .count();
}

std::int32_t
SpanLog::open(const char *name)
{
    if (!armed)
        return -1;
    Span s;
    s.name = name;
    s.parent = _stack.empty() ? -1 : _stack.back();
    s.op = _op;
    s.startNs = nanos(Clock::now());
    auto id = static_cast<std::int32_t>(_spans.size());
    _spans.push_back(s);
    _stack.push_back(id);
    return id;
}

void
SpanLog::close(std::int32_t id, std::uint64_t work)
{
    if (id < 0)
        return;
    Span &s = _spans[static_cast<std::size_t>(id)];
    s.endNs = nanos(Clock::now());
    s.work = work;
    // Spans close in LIFO order; the id is always the innermost one.
    _stack.pop_back();
}

void
SpanLog::interval(const char *name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t work)
{
    if (!armed)
        return;
    Span s;
    s.name = name;
    s.op = _op;
    s.startNs = nanos(start);
    s.endNs = nanos(end);
    s.work = work;
    _spans.push_back(s);
}

std::map<std::string, SpanTotals>
SpanLog::totals() const
{
    std::vector<std::int64_t> childNs(_spans.size(), 0);
    for (const Span &s : _spans) {
        if (s.parent >= 0)
            childNs[static_cast<std::size_t>(s.parent)] +=
                s.endNs - s.startNs;
    }
    std::map<std::string, SpanTotals> out;
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        double self = static_cast<double>(s.endNs - s.startNs -
                                          childNs[i]) * 1e-9;
        SpanTotals &t = out[s.name];
        t.calls++;
        t.selfSecs += self;
        t.work += s.work;
        t.selfSamples.push_back(self);
    }
    return out;
}

bool
SpanLog::writeChrome(const std::string &path) const
{
    std::FILE *f = std::fopen(path.c_str(), "wb");
    if (!f)
        return false;
    std::fputs("{\"traceEvents\":[", f);
    for (std::size_t i = 0; i < _spans.size(); ++i) {
        const Span &s = _spans[i];
        // Root intervals (service sojourns) overlap each other, so
        // they go on their own track.
        int track = s.parent < 0 && std::string(s.name) == "sojourn"
                        ? 2
                        : 1;
        std::fprintf(f,
                     "%s\n{\"name\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                     "\"tid\":%d,\"ts\":%.3f,\"dur\":%.3f,"
                     "\"args\":{\"id\":%zu,\"parent\":%d,\"op\":%llu,"
                     "\"work\":%llu}}",
                     i ? "," : "", s.name, track,
                     static_cast<double>(s.startNs) / 1e3,
                     static_cast<double>(s.endNs - s.startNs) / 1e3, i,
                     s.parent, static_cast<unsigned long long>(s.op),
                     static_cast<unsigned long long>(s.work));
    }
    std::fputs("\n]}\n", f);
    return std::fclose(f) == 0;
}

} // namespace qrb
