#include "stats.hh"

#include <algorithm>
#include <cmath>

namespace distill::e2e
{

Quartiles
quartiles(std::vector<double> values)
{
    Quartiles q;
    if (values.empty())
        return q;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    if (n == 1) {
        q.q1 = q.median = q.q3 = values[0];
        return q;
    }
    // statistics.quantiles(method="exclusive"): m = n + 1, cut point i
    // of 4 sits at rank i*m/4, clamped to [1, n-1], interpolated
    // between the neighbouring order statistics in exact integer steps.
    auto cut = [&](std::size_t i) {
        std::size_t m = n + 1;
        std::size_t j = i * m / 4;
        j = std::clamp<std::size_t>(j, 1, n - 1);
        double delta = static_cast<double>(i * m) - static_cast<double>(j * 4);
        return (values[j - 1] * (4.0 - delta) + values[j] * delta) / 4.0;
    };
    q.q1 = cut(1);
    q.median = cut(2);
    q.q3 = cut(3);
    return q;
}

double
percentile(std::vector<double> values, double p)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    double rank = std::ceil(p / 100.0 * static_cast<double>(values.size()));
    std::size_t index = rank < 1.0 ? 0 : static_cast<std::size_t>(rank) - 1;
    return values[std::min(index, values.size() - 1)];
}

double
tailPercentile(std::size_t n)
{
    for (double p : {99.99, 99.9, 99.0, 90.0}) {
        if (static_cast<double>(n) * (1.0 - p / 100.0) >= 10.0 - 1e-9)
            return p;
    }
    return 0.0;
}

const std::vector<MetricSpec> &
metricSpecs()
{
    // Bounds match BENCHMARK.json. Host speed on the shared 4-core
    // benchmark host drifts by 10-15% over minutes (README.md), so the
    // timings get the largest bound allowed; setup_s additionally
    // tolerates an absolute 0.05 s so millisecond set-ups do not flap.
    static const std::vector<MetricSpec> specs = {
        {"wall_s", "s", Better::Lower, 0.25, 0.0, true},
        {"setup_s", "s", Better::Lower, 0.25, 0.05, true},
        {"cpu_s", "s", Better::Lower, 0.25, 0.0, true},
        {"sim_cycles_per_s", "cycles/s", Better::Higher, 0.25, 0.0, true},
        {"peak_rss_mib", "MiB", Better::Lower, 0.10, 0.0, true},

        {"lbo.min_heap.share", "ratio", Better::Lower},
        {"lbo.pool.efficiency", "ratio", Better::Higher},
        {"lbo.record.csv_write_ms", "ms", Better::Lower},
        {"lbo.record.csv_read_ms", "ms", Better::Lower},
        {"mutator.ns_per_kib", "ns", Better::Lower},
        {"sim.dispatch_ns", "ns", Better::Lower},
        {"sim.dispatches", "count", Better::Lower},
        {"gc.host_share", "ratio", Better::Lower},
        {"gc.ns_per_kcycle", "ns", Better::Lower},
        {"gc.host_lbo.Serial", "ratio", Better::Lower},
        {"gc.host_lbo.Parallel", "ratio", Better::Lower},
        {"gc.host_lbo.G1", "ratio", Better::Lower},
        {"gc.host_lbo.Shenandoah", "ratio", Better::Lower},
        {"gc.host_lbo.ZGC", "ratio", Better::Lower},
        {"gc.pauses", "count", Better::Lower},
        {"gc.steal_hit_ratio", "ratio", Better::Higher},
        {"serve.requests_completed", "count", Better::Higher},
        {"serve.metered_p99_sim_ns", "sim-ns", Better::Lower},
        {"trace.overhead_share", "ratio", Better::Lower},
    };
    return specs;
}

const MetricSpec *
findMetric(const std::string &name)
{
    for (const MetricSpec &spec : metricSpecs()) {
        if (spec.name == name)
            return &spec;
    }
    return nullptr;
}

double
allowedWorsening(const MetricSpec &spec, double base)
{
    return std::max(spec.bound * std::fabs(base), spec.floor);
}

double
worsening(const MetricSpec &spec, double base, double value)
{
    return spec.better == Better::Lower ? value - base : base - value;
}

bool
spreadExceedsBound(const MetricSpec &spec, const Quartiles &q)
{
    return q.q3 - q.q1 > allowedWorsening(spec, q.median);
}

const char *
verdictName(Verdict verdict)
{
    switch (verdict) {
    case Verdict::Agree:
        return "agree";
    case Verdict::Better:
        return "better";
    case Verdict::Worse:
        return "worse";
    case Verdict::Unresolved:
        return "unresolved";
    }
    return "?";
}

Verdict
compareSets(const MetricSpec &spec, const Quartiles &a, const Quartiles &b)
{
    if (spreadExceedsBound(spec, a) || spreadExceedsBound(spec, b))
        return Verdict::Unresolved;
    double worse = worsening(spec, a.median, b.median);
    double allowed = allowedWorsening(spec, a.median);
    if (worse > allowed)
        return Verdict::Worse;
    if (-worse > allowed)
        return Verdict::Better;
    return Verdict::Agree;
}

} // namespace distill::e2e
