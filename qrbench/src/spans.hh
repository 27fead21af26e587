/**
 * @file
 * In-memory spans for the traced benchmark mode.
 *
 * The benchmark wraps every public library call it makes in a span
 * (name, start, end, parent, op id, work). Spans are recorded only
 * while the log is armed, kept in memory, and written out once at
 * exit as Chrome trace-event JSON (loadable in Perfetto). A span's
 * self time is its duration minus the time its child spans cover;
 * the per-layer metrics are sums of self time and work by span name.
 */

#ifndef QRB_SPANS_HH
#define QRB_SPANS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

namespace qrb
{

using Clock = std::chrono::steady_clock;

/** @return seconds elapsed since @p t0. */
inline double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

/** One recorded call. */
struct Span
{
    const char *name = "";
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    std::int32_t parent = -1; //!< index of the enclosing span, or -1
    std::uint64_t op = 0;     //!< operation the call belongs to
    std::uint64_t work = 0;   //!< instructions, bytes or chunks done
};

/** Per-name totals over every span of that name. */
struct SpanTotals
{
    std::uint64_t calls = 0;
    double selfSecs = 0;
    std::uint64_t work = 0;
    std::vector<double> selfSamples; //!< one per call
};

class SpanLog
{
  public:
    SpanLog() : _epoch(Clock::now()) {}

    /** Spans are recorded only while armed. */
    bool armed = false;

    /** Start a new operation id; later spans carry it. */
    void nextOp() { ++_op; }

    /** Open a span nested in the innermost open one; -1 if disarmed. */
    std::int32_t open(const char *name);

    /** Close span @p id (from open()), crediting it @p work. */
    void close(std::int32_t id, std::uint64_t work);

    /**
     * Record an interval that was not a nested call (e.g. the time a
     * sphere spent inside the record service), as a root span.
     */
    void interval(const char *name, Clock::time_point start,
                  Clock::time_point end, std::uint64_t work = 0);

    const std::vector<Span> &spans() const { return _spans; }

    /** Self time per name: duration minus covered child time. */
    std::map<std::string, SpanTotals> totals() const;

    /** Write every span as Chrome trace-event JSON; false on I/O error. */
    bool writeChrome(const std::string &path) const;

  private:
    std::int64_t nanos(Clock::time_point t) const;

    Clock::time_point _epoch;
    std::vector<Span> _spans;
    std::vector<std::int32_t> _stack;
    std::uint64_t _op = 0;
};

/** RAII span: opens on construction, closes on destruction. */
class SpanScope
{
  public:
    SpanScope(SpanLog &log, const char *name)
        : _log(log), _id(log.open(name))
    {}
    ~SpanScope() { _log.close(_id, _work); }

    SpanScope(const SpanScope &) = delete;
    SpanScope &operator=(const SpanScope &) = delete;

    /** Credit the span with @p w units of work. */
    void work(std::uint64_t w) { _work = w; }

  private:
    SpanLog &_log;
    std::int32_t _id;
    std::uint64_t _work = 0;
};

} // namespace qrb

#endif // QRB_SPANS_HH
