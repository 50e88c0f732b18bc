/**
 * @file
 * The results file `distill_e2e --out` writes and `--compare` reads:
 * per workload, every metric's reported value (the median over reps)
 * with its unit and per-rep samples, plus the run's check outcome.
 *
 *   {"schema": "distill-e2e", "version": 1, "seed": 42, "trace": false,
 *    "workloads": [
 *      {"name": "sweep-cold", "attempted": 108, "failed": 0,
 *       "sim_digest": "9f0c...", "metrics": [
 *         {"name": "wall_s", "unit": "s", "value": 2.71,
 *          "samples": [2.70, 2.71, 2.93]}, ...]}, ...]}
 *
 * The parser is strict: a truncated or malformed file, a missing
 * member, a non-finite number or an empty sample list is an error.
 */

#ifndef DISTILL_BENCH_E2E_RESULTS_HH
#define DISTILL_BENCH_E2E_RESULTS_HH

#include <cstdint>
#include <string>
#include <vector>

namespace distill::e2e
{

/** One metric of one workload. */
struct MetricResult
{
    std::string name;
    std::string unit;
    double value = 0.0;
    std::vector<double> samples;
};

/** One workload's outcome within a run. */
struct WorkloadResult
{
    std::string name;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string simDigest;
    std::vector<MetricResult> metrics;

    const MetricResult *find(const std::string &metric) const;
};

/** One invocation of the benchmark. */
struct Results
{
    std::uint64_t seed = 0;
    bool trace = false;
    std::vector<WorkloadResult> workloads;

    const WorkloadResult *find(const std::string &workload) const;
};

/** @p v with all its digits ("%.17g"), so it reads back exactly. */
std::string exactNum(double v);

std::string writeResults(const Results &results);

/** Parse @p text; false with @p error set on any defect. */
bool parseResults(const std::string &text, Results *out, std::string *error);

} // namespace distill::e2e

#endif // DISTILL_BENCH_E2E_RESULTS_HH
