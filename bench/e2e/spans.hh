/**
 * @file
 * In-memory spans around the benchmark's calls into the simulator's
 * public functions: one span per call, kept in memory, shipped from
 * the workload child to the parent, and written at exit as Chrome
 * trace-event JSON. A layer's self time is its spans' duration minus
 * the part of that interval its child spans cover.
 */

#ifndef DISTILL_BENCH_E2E_SPANS_HH
#define DISTILL_BENCH_E2E_SPANS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace distill::e2e
{

/** Host monotonic clock in nanoseconds; comparable across processes. */
std::int64_t nowNs();

/** One timed call. */
struct Span
{
    std::string name;  //!< e.g. "runOne h2/G1/1.4/0"
    std::string layer; //!< module-level layer, e.g. "lbo.sweep"
    std::int64_t startNs = 0;
    std::int64_t endNs = 0;
    int parent = -1; //!< index of the enclosing span, -1 for a root
    std::string workload;
    unsigned rep = 0;

    double seconds() const { return static_cast<double>(endNs - startNs) * 1e-9; }
};

/**
 * Span recorder for one workload child. Disabled recorders still hand
 * out scopes (so call sites need no branches) but keep nothing.
 */
class SpanLog
{
  public:
    explicit SpanLog(bool enabled) : enabled_(enabled) {}

    /** RAII span: opens on construction, closes on destruction. */
    class Scope
    {
      public:
        Scope(SpanLog &log, std::string name, std::string layer);
        ~Scope();
        Scope(const Scope &) = delete;
        Scope &operator=(const Scope &) = delete;

        /** Seconds since the scope opened (valid when disabled too). */
        double elapsedSec() const;

      private:
        SpanLog &log_;
        int index_ = -1;
        std::int64_t startNs_;
    };

    /**
     * Record a call timed from outside (e.g. between two callbacks) as
     * a closed span under the innermost open one.
     */
    void record(std::string name, std::string layer, std::int64_t startNs,
                std::int64_t endNs);

    const std::vector<Span> &spans() const { return spans_; }

  private:
    bool enabled_;
    std::vector<Span> spans_;
    std::vector<int> open_;
};

/**
 * Self time of every span in @p spans, in seconds: its duration minus
 * the union of its direct children's intervals clipped to it.
 * Parents refer to indices within @p spans.
 */
std::vector<double> selfTimes(const std::vector<Span> &spans);

/**
 * Render @p spans as Chrome trace-event JSON ("X" events, one process
 * per workload, one thread per rep, microsecond timestamps relative to
 * the earliest span).
 */
std::string chromeTrace(const std::vector<Span> &spans);

} // namespace distill::e2e

#endif // DISTILL_BENCH_E2E_SPANS_HH
