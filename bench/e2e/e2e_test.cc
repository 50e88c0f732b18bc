/**
 * @file
 * Unit tests for the benchmark's own arithmetic and parsers: the
 * percentile sample-count rule, quartiles, bound checks, span self
 * time, and the strictness of the results-file and child-payload
 * parsers against truncated or malformed input.
 */

#include <gtest/gtest.h>

#include "results.hh"
#include "spans.hh"
#include "stats.hh"
#include "workloads.hh"

namespace distill::e2e
{
namespace
{

TEST(Stats, TailPercentileNeedsTenSamplesBeyond)
{
    EXPECT_EQ(tailPercentile(0), 0.0);
    EXPECT_EQ(tailPercentile(99), 0.0);
    EXPECT_EQ(tailPercentile(100), 90.0);
    EXPECT_EQ(tailPercentile(144), 90.0);
    EXPECT_EQ(tailPercentile(999), 90.0);
    EXPECT_EQ(tailPercentile(1000), 99.0);
    EXPECT_EQ(tailPercentile(10000), 99.9);
    EXPECT_EQ(tailPercentile(100000), 99.99);
}

TEST(Stats, NearestRankPercentile)
{
    std::vector<double> v = {10, 1, 9, 2, 8, 3, 7, 4, 6, 5};
    EXPECT_EQ(percentile(v, 50.0), 5.0);
    EXPECT_EQ(percentile(v, 90.0), 9.0);
    EXPECT_EQ(percentile(v, 91.0), 10.0);
    EXPECT_EQ(percentile(v, 100.0), 10.0);
    EXPECT_EQ(percentile(v, 0.0), 1.0);
    EXPECT_EQ(percentile({}, 50.0), 0.0);
}

TEST(Stats, QuartilesMatchPythonExclusiveMethod)
{
    // statistics.quantiles(values, n=4) reference values.
    Quartiles q = quartiles({1, 2, 3, 4, 5, 6, 7, 8, 9, 10});
    EXPECT_DOUBLE_EQ(q.q1, 2.75);
    EXPECT_DOUBLE_EQ(q.median, 5.5);
    EXPECT_DOUBLE_EQ(q.q3, 8.25);
    q = quartiles({1, 2});
    EXPECT_DOUBLE_EQ(q.q1, 0.75);
    EXPECT_DOUBLE_EQ(q.median, 1.5);
    EXPECT_DOUBLE_EQ(q.q3, 2.25);
    q = quartiles({3, 1, 2});
    EXPECT_DOUBLE_EQ(q.q1, 1.0);
    EXPECT_DOUBLE_EQ(q.q3, 3.0);
    q = quartiles({5, 1, 4, 2, 3});
    EXPECT_DOUBLE_EQ(q.q1, 1.5);
    EXPECT_DOUBLE_EQ(q.median, 3.0);
    EXPECT_DOUBLE_EQ(q.q3, 4.5);
    q = quartiles({7});
    EXPECT_EQ(q.q1, 7.0);
    EXPECT_EQ(q.q3, 7.0);
}

TEST(Stats, BoundsFollowDirection)
{
    const MetricSpec &wall = *findMetric("wall_s");
    const double b = wall.bound;
    EXPECT_DOUBLE_EQ(allowedWorsening(wall, 10.0), 10.0 * b);
    EXPECT_LT(worsening(wall, 10.0, 10.0 * (1 + 0.9 * b)),
              allowedWorsening(wall, 10.0));
    EXPECT_GT(worsening(wall, 10.0, 10.0 * (1 + 1.1 * b)),
              allowedWorsening(wall, 10.0));
    EXPECT_LT(worsening(wall, 10.0, 9.0), 0.0);

    const MetricSpec &rate = *findMetric("sim_cycles_per_s");
    EXPECT_GT(worsening(rate, 100.0, 100.0 * (1 - 1.1 * rate.bound)),
              allowedWorsening(rate, 100.0));
    EXPECT_LT(worsening(rate, 100.0, 120.0), 0.0);
}

TEST(Stats, SetupBoundHasAnAbsoluteFloor)
{
    const MetricSpec &setup = *findMetric("setup_s");
    EXPECT_DOUBLE_EQ(allowedWorsening(setup, 0.01), 0.05);
    EXPECT_DOUBLE_EQ(allowedWorsening(setup, 4.0), 4.0 * setup.bound);
    Quartiles base{0.009, 0.010, 0.011};
    EXPECT_EQ(compareSets(setup, base, {0.05, 0.055, 0.06}), Verdict::Agree);
    EXPECT_EQ(compareSets(setup, base, {0.06, 0.07, 0.08}), Verdict::Worse);
}

TEST(Stats, CompareVerdicts)
{
    const MetricSpec &wall = *findMetric("wall_s");
    const double step = 10.0 * wall.bound; // allowed worsening at 10 s
    Quartiles a{9.9, 10.0, 10.1};
    auto around = [](double m) { return Quartiles{m - 0.1, m, m + 0.1}; };
    EXPECT_EQ(compareSets(wall, a, around(10.0 + 0.5 * step)), Verdict::Agree);
    EXPECT_EQ(compareSets(wall, a, around(10.0 + 1.2 * step)), Verdict::Worse);
    EXPECT_EQ(compareSets(wall, a, around(10.0 - 1.2 * step)),
              Verdict::Better);
    // A spread wider than the bound cannot say agree or worse.
    Quartiles wide{10.0 - step, 10.0, 10.0 + 0.5 * step};
    EXPECT_EQ(compareSets(wall, a, wide), Verdict::Unresolved);
    EXPECT_EQ(compareSets(wall, wide, a), Verdict::Unresolved);
}

TEST(Stats, EveryEndToEndMetricIsBoundedAndSetupHasTheLargestBound)
{
    double largest = 0.0;
    for (const MetricSpec &spec : metricSpecs()) {
        if (spec.endToEnd) {
            EXPECT_GT(spec.bound, 0.0) << spec.name;
            EXPECT_LE(spec.bound, 0.25) << spec.name;
            largest = std::max(largest, spec.bound);
        }
    }
    EXPECT_EQ(findMetric("setup_s")->bound, largest);
}

Span
span(std::int64_t start, std::int64_t end, int parent)
{
    Span s;
    s.name = "s";
    s.layer = "l";
    s.startNs = start;
    s.endNs = end;
    s.parent = parent;
    return s;
}

TEST(Spans, SelfTimeSubtractsUnionOfDirectChildren)
{
    std::vector<Span> spans = {
        span(0, 1000, -1),  // root
        span(100, 300, 0),  // child
        span(200, 500, 0),  // overlapping child: union 100..500
        span(250, 260, 2),  // grandchild: not the root's business
        span(900, 1200, 0), // overruns the root: clipped to 900..1000
    };
    std::vector<double> self = selfTimes(spans);
    EXPECT_NEAR(self[0], (1000 - 400 - 100) * 1e-9, 1e-15);
    EXPECT_NEAR(self[1], 200e-9, 1e-15);
    EXPECT_NEAR(self[2], (300 - 10) * 1e-9, 1e-15);
    EXPECT_NEAR(self[3], 10e-9, 1e-15);
}

TEST(Spans, ScopesNestAndDisabledLogsKeepNothing)
{
    SpanLog on(true);
    {
        SpanLog::Scope outer(on, "outer", "a");
        SpanLog::Scope inner(on, "inner", "b");
        on.record("gap", "c", 1, 2);
    }
    ASSERT_EQ(on.spans().size(), 3u);
    EXPECT_EQ(on.spans()[0].parent, -1);
    EXPECT_EQ(on.spans()[1].parent, 0);
    EXPECT_EQ(on.spans()[2].parent, 1);
    EXPECT_GE(on.spans()[0].endNs, on.spans()[1].endNs);

    SpanLog off(false);
    {
        SpanLog::Scope scope(off, "x", "y");
        EXPECT_GE(scope.elapsedSec(), 0.0);
    }
    EXPECT_TRUE(off.spans().empty());
}

Results
sampleResults()
{
    Results r;
    r.seed = 7;
    r.trace = true;
    WorkloadResult w;
    w.name = "matrix-gc";
    w.attempted = 33;
    w.failed = 0;
    w.simDigest = "00ff00ff00ff00ff";
    w.metrics.push_back({"wall_s", "s", 4.25, {4.1, 4.25, 4.4}});
    w.metrics.push_back({"gc.host_share", "ratio", 0.6789012345678901, {0.6789012345678901}});
    r.workloads.push_back(w);
    w.name = "fleet-serve";
    w.metrics = {{"setup_s", "s", 1e-4, {1e-4}}};
    r.workloads.push_back(w);
    return r;
}

TEST(Results, RoundTripsExactly)
{
    Results in = sampleResults();
    std::string text = writeResults(in);
    Results out;
    std::string error;
    ASSERT_TRUE(parseResults(text, &out, &error)) << error;
    EXPECT_EQ(out.seed, 7u);
    EXPECT_TRUE(out.trace);
    ASSERT_EQ(out.workloads.size(), 2u);
    const MetricResult *m = out.find("matrix-gc")->find("gc.host_share");
    ASSERT_NE(m, nullptr);
    EXPECT_EQ(m->value, 0.6789012345678901);
    EXPECT_EQ(writeResults(out), text);
}

TEST(Results, RejectsEveryTruncation)
{
    std::string text = writeResults(sampleResults());
    // Trailing whitespace aside, every proper prefix is incomplete.
    std::size_t end = text.find_last_not_of(" \n");
    for (std::size_t n = 0; n <= end; ++n) {
        std::string error;
        EXPECT_FALSE(parseResults(text.substr(0, n), nullptr, &error))
            << "prefix of " << n << " bytes parsed";
        EXPECT_FALSE(error.empty());
    }
}

TEST(Results, RejectsMalformedDocuments)
{
    std::string good = writeResults(sampleResults());
    auto replaced = [&](const std::string &from, const std::string &to) {
        std::string t = good;
        std::size_t at = t.find(from);
        EXPECT_NE(at, std::string::npos) << from;
        return t.replace(at, from.size(), to);
    };
    const std::vector<std::string> bad = {
        "",
        "[]",
        good + "x",
        replaced("\"schema\": \"distill-e2e\"", "\"schema\": \"other\""),
        replaced("\"version\": 1", "\"version\": 2"),
        replaced("\"seed\": 7, ", ""),
        replaced("\"trace\": true", "\"trace\": 1"),
        replaced("\"attempted\": 33", "\"attempted\": -1"),
        replaced("\"attempted\": 33", "\"attempted\": 3.5"),
        replaced("\"value\": 4.25", "\"value\": nan"),
        replaced("\"value\": 4.25", "\"value\": 1e999"),
        replaced("[4.0999999999999996, 4.25, 4.4000000000000004]", "[]"),
        replaced("\"unit\": \"s\"", "\"unit\": \"s\", \"extra\": 1"),
        replaced("\"name\": \"fleet-serve\"", "\"name\": \"matrix-gc\""),
        replaced("\"sim_digest\": \"00ff00ff00ff00ff\", ", ""),
    };
    for (const std::string &text : bad) {
        std::string error;
        EXPECT_FALSE(parseResults(text, nullptr, &error)) << text;
        EXPECT_FALSE(error.empty()) << text;
    }
}

TEST(ChildPayload, RoundTripsAndRejectsTruncation)
{
    RepOutput out;
    out.firstCallNs = 123456789;
    out.simCycles = 1.5e9;
    out.attempted = 12;
    out.failed = 1;
    out.digest = "0123456789abcdef";
    out.cellMs = {1.25, 30.5};
    out.failures = {"status: h2/G1 invocation 0 is oom\n(detail)"};
    out.values = {{"gc.host_share", 0.625}, {"serve.fleet.s.blind", 2.5}};
    Span s = span(10, 20, -1);
    s.name = "serve::runFleet blind";
    out.spans = {s, span(12, 18, 0)};

    std::string payload = encodeRep(out);
    RepOutput back;
    ASSERT_TRUE(decodeRep(payload, back));
    EXPECT_EQ(encodeRep(back), payload);
    EXPECT_EQ(back.pooledDigest, "");
    EXPECT_EQ(back.value("serve.fleet.s.blind"), 2.5);
    EXPECT_EQ(back.spans[0].name, "serve::runFleet blind");
    EXPECT_EQ(back.spans[1].parent, 0);

    for (std::size_t n = 0; n < payload.size(); ++n) {
        RepOutput partial;
        EXPECT_FALSE(decodeRep(payload.substr(0, n), partial))
            << "prefix of " << n << " bytes decoded";
    }
    EXPECT_FALSE(decodeRep(payload + "CELL 1\n", back));
    std::string forward = payload;
    forward.replace(forward.find("12 18 0"), 7, "12 18 5");
    EXPECT_FALSE(decodeRep(forward, back));
}

} // namespace
} // namespace distill::e2e
