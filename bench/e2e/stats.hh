/**
 * @file
 * Summary statistics and regression bounds for the end-to-end
 * benchmark: quartiles computed exactly as Python's
 * statistics.quantiles(values, n=4) does, nearest-rank percentiles,
 * the "highest percentile with at least ten samples beyond it" rule,
 * and the per-metric bound check behind `distill_e2e --compare`.
 */

#ifndef DISTILL_BENCH_E2E_STATS_HH
#define DISTILL_BENCH_E2E_STATS_HH

#include <cstddef>
#include <string>
#include <vector>

namespace distill::e2e
{

/** First quartile, median and third quartile of a sample set. */
struct Quartiles
{
    double q1 = 0.0;
    double median = 0.0;
    double q3 = 0.0;
};

/**
 * Quartiles by the "exclusive" method of Python's
 * statistics.quantiles(values, n=4), so the spreads this tool prints
 * match the ones an external acceptance script computes. A single
 * sample is its own three quartiles; an empty set gives zeros.
 */
Quartiles quartiles(std::vector<double> values);

/** Nearest-rank percentile @p p (0..100]; 0 for an empty set. */
double percentile(std::vector<double> values, double p);

/**
 * The highest of the percentiles 90, 99, 99.9 and 99.99 that leaves at
 * least ten of @p n samples beyond it, or 0 when even p90 does not
 * (fewer than 100 samples): a tail figure resting on fewer than ten
 * samples is one or two outliers, not a percentile.
 */
double tailPercentile(std::size_t n);

/** Whether a larger value of a metric is an improvement. */
enum class Better
{
    Lower,
    Higher,
};

/** Definition of one reported metric. */
struct MetricSpec
{
    std::string name;
    std::string unit;
    Better better = Better::Lower;

    /** Share of the baseline median a value may worsen by (0 = none). */
    double bound = 0.0;

    /** Absolute worsening always tolerated, in the metric's unit. */
    double floor = 0.0;

    /** End-to-end (bounded) metric, as opposed to a per-layer one. */
    bool endToEnd = false;
};

/** Every metric the benchmark reports, end-to-end ones first. */
const std::vector<MetricSpec> &metricSpecs();

/** The spec named @p name, or nullptr. */
const MetricSpec *findMetric(const std::string &name);

/** Worsening a value may show against @p base: max(bound*|base|, floor). */
double allowedWorsening(const MetricSpec &spec, double base);

/** How much worse @p value is than @p base (negative = better). */
double worsening(const MetricSpec &spec, double base, double value);

/** Whether a sample set's inter-quartile range exceeds the bound. */
bool spreadExceedsBound(const MetricSpec &spec, const Quartiles &q);

/** Outcome of comparing two sets of runs of one metric. */
enum class Verdict
{
    Agree,
    Better,
    Worse,
    Unresolved,
};

const char *verdictName(Verdict verdict);

/**
 * Compare set @p b against baseline set @p a: Unresolved when either
 * side's spread exceeds the bound, Worse or Better when the medians
 * differ by more than allowedWorsening(), Agree otherwise.
 */
Verdict compareSets(const MetricSpec &spec, const Quartiles &a,
                    const Quartiles &b);

} // namespace distill::e2e

#endif // DISTILL_BENCH_E2E_STATS_HH
