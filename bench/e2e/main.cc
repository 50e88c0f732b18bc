/**
 * @file
 * distill_e2e: end-to-end host-time benchmark of the simulator, with
 * per-layer attribution. See README.md in this directory.
 *
 * Usage:
 *   distill_e2e [--workload NAME|all] [--seed S] [--reps R | --seconds T]
 *               [--trace 0|1] [--spans PATH] [--out PATH] [--scratch DIR]
 *   distill_e2e --smoke
 *   distill_e2e --compare A.json[,A2.json...] B.json[,B2.json...]
 *
 * Every (workload, rep) runs in a freshly forked child; the parent
 * reads the child's wall time and its wait4() rusage, which covers the
 * pool children it reaped. Reps are interleaved across workloads.
 * With --trace 1 each round runs an untraced and a traced rep (in
 * alternating order) and, after the last round, one child of
 * in-process companions per workload; the metrics printed are then
 * the per-layer ones. The last line of standard output is one JSON
 * object: {"correct", "attempted", "failed", "metrics"}. Any failed
 * output check is named on standard error and makes the exit status 1.
 */

#include <algorithm>
#include <cerrno>
#include <csignal>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <vector>

#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>
#if defined(__linux__)
#include <sys/prctl.h>
#endif

#include "base/host_timer.hh"
#include "lbo/pool.hh"
#include "results.hh"
#include "spans.hh"
#include "stats.hh"
#include "trace_json.hh"
#include "workloads.hh"

using namespace distill;
using namespace distill::e2e;

namespace
{

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "distill_e2e: %s\n"
                 "usage: distill_e2e [--workload NAME|all] [--seed S]\n"
                 "                   [--reps R | --seconds T] [--trace 0|1]\n"
                 "                   [--spans PATH] [--out PATH] "
                 "[--scratch DIR]\n"
                 "       distill_e2e --smoke\n"
                 "       distill_e2e --compare A.json[,...] B.json[,...]\n",
                 why);
    std::exit(2);
}

std::uint64_t
parseCount(const char *flag, const std::string &text, std::uint64_t max)
{
    char *end = nullptr;
    errno = 0;
    unsigned long long v = std::strtoull(text.c_str(), &end, 10);
    if (text.empty() || text[0] == '-' || *end != '\0' || errno != 0 ||
        v > max)
        usage((std::string(flag) + ": bad value '" + text + "'").c_str());
    return v;
}

/** Pool children a workload keeps in flight (pool efficiency base). */
constexpr double poolWidth = 4.0;

/** Wall-clock limit for one child; the run must end within 180 s. */
constexpr double childTimeoutSec = 150.0;

/** Span rep number (trace thread id) of the companions child. */
constexpr unsigned companionRep = 1000;

// ----- Children --------------------------------------------------------

/** Process group of the running child, for the signal handler. */
volatile std::sig_atomic_t runningGroup = 0;

extern "C" void
onTerminate(int sig)
{
    if (runningGroup > 0)
        kill(-static_cast<pid_t>(runningGroup), SIGKILL);
    _exit(128 + sig);
}

/** Reap every remaining descendant (we are their subreaper). */
void
reapAll(bool block)
{
    for (;;) {
        pid_t p = waitpid(-1, nullptr, block ? 0 : WNOHANG);
        if (p > 0 || (p < 0 && errno == EINTR))
            continue;
        return;
    }
}

/** One child as the parent saw it. */
struct ChildRun
{
    bool ok = false;
    std::string error;
    RepOutput out;
    double wallS = 0.0;
    double setupS = 0.0;
    double cpuS = 0.0;
    double rssMiB = 0.0;
};

ChildRun
runChild(const RepInput &in, bool companions)
{
    ChildRun run;
    std::error_code ec;
    std::filesystem::create_directories(in.scratchDir, ec);
    std::fflush(stdout);
    std::fflush(stderr);
    int fds[2];
    if (pipe(fds) != 0) {
        run.error = std::string("pipe: ") + std::strerror(errno);
        return run;
    }
    std::int64_t t0 = nowNs();
    pid_t pid = fork();
    if (pid < 0) {
        run.error = std::string("fork: ") + std::strerror(errno);
        close(fds[0]);
        close(fds[1]);
        return run;
    }
    if (pid == 0) {
        close(fds[0]);
        setpgid(0, 0);
        std::signal(SIGTERM, SIG_DFL);
        std::signal(SIGINT, SIG_DFL);
        int code = 0;
        try {
            RepOutput out = companions ? runCompanions(in) : runRep(in);
            lbo::detail::writeAll(fds[1], encodeRep(out));
        } catch (const std::exception &e) {
            std::fprintf(stderr, "distill_e2e child: %s\n", e.what());
            code = 1;
        }
        close(fds[1]);
        std::fflush(stderr);
        _exit(code);
    }
    setpgid(pid, pid);
    runningGroup = pid;
    close(fds[1]);
    std::string payload;
    lbo::DrainStatus drained = lbo::drainUntil(
        fds[0], payload,
        std::chrono::steady_clock::now() +
            std::chrono::milliseconds(
                static_cast<long long>(childTimeoutSec * 1e3)));
    close(fds[0]);
    if (drained != lbo::DrainStatus::Eof)
        kill(-pid, SIGKILL);
    int status = 0;
    struct rusage ru{};
    while (wait4(pid, &status, 0, &ru) < 0 && errno == EINTR) {
    }
    std::int64_t t1 = nowNs();
    if (drained != lbo::DrainStatus::Eof) {
        kill(-pid, SIGKILL);
        reapAll(true);
    } else {
        reapAll(false);
    }
    runningGroup = 0;
    std::filesystem::remove_all(in.scratchDir, ec);

    run.wallS = static_cast<double>(t1 - t0) * 1e-9;
    run.cpuS = static_cast<double>(ru.ru_utime.tv_sec + ru.ru_stime.tv_sec) +
        static_cast<double>(ru.ru_utime.tv_usec + ru.ru_stime.tv_usec) * 1e-6;
    run.rssMiB = static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
    if (drained == lbo::DrainStatus::Deadline) {
        run.error = "timed out after " +
            std::to_string(static_cast<int>(childTimeoutSec)) + " s";
    } else if (!WIFEXITED(status) || WEXITSTATUS(status) != 0) {
        run.error = WIFSIGNALED(status)
            ? "killed by signal " + std::to_string(WTERMSIG(status))
            : "exited " + std::to_string(WEXITSTATUS(status));
    } else if (!decodeRep(payload, run.out)) {
        run.error = "truncated or malformed payload";
    } else {
        run.ok = true;
        run.setupS = static_cast<double>(run.out.firstCallNs - t0) * 1e-9;
    }
    return run;
}

// ----- Per-workload aggregation ---------------------------------------

struct WorkloadRun
{
    std::string name;
    std::vector<ChildRun> untraced;
    std::vector<ChildRun> traced;
    ChildRun companions;
    bool haveCompanions = false;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::string digest;
    std::string pooledDigest;
    std::vector<Span> spans;

    /** Fold one finished child in, running the cross-rep checks. */
    void
    absorb(ChildRun run, bool traced_rep, bool companion)
    {
        unsigned rep = static_cast<unsigned>(untraced.size() + traced.size());
        auto failCheck = [&](const std::string &what) {
            failures.push_back(name + ": " + what);
        };
        if (!run.ok) {
            failCheck("child: " + run.error);
            ++attempted;
            ++failed;
        } else {
            for (const std::string &f : run.out.failures)
                failCheck(f);
            attempted += run.out.attempted;
            failed += run.out.failed;
            if (!companion) {
                if (digest.empty())
                    digest = run.out.digest;
                else if (run.out.digest != digest)
                    failCheck("sim-digest: rep " + std::to_string(rep) +
                              " gives " + run.out.digest + ", rep 0 gave " +
                              digest);
                if (pooledDigest.empty())
                    pooledDigest = run.out.pooledDigest;
            } else if (run.out.pooledDigest != pooledDigest) {
                failCheck("pooled-vs-inprocess: in-process records digest " +
                          run.out.pooledDigest + ", pooled " + pooledDigest);
            }
            std::size_t base = spans.size();
            for (Span s : run.out.spans) {
                s.workload = name;
                s.rep = companion ? companionRep : rep;
                if (s.parent >= 0)
                    s.parent += static_cast<int>(base);
                spans.push_back(std::move(s));
            }
        }
        if (companion) {
            companions = std::move(run);
            haveCompanions = true;
        } else {
            (traced_rep ? traced : untraced).push_back(std::move(run));
        }
    }
};

std::vector<double>
collect(const std::vector<ChildRun> &runs,
        double (*get)(const ChildRun &))
{
    std::vector<double> v;
    for (const ChildRun &r : runs) {
        if (r.ok)
            v.push_back(get(r));
    }
    return v;
}

std::vector<double>
collectValue(const std::vector<ChildRun> &runs, const std::string &name)
{
    std::vector<double> v;
    for (const ChildRun &r : runs) {
        if (r.ok)
            v.push_back(r.out.value(name));
    }
    return v;
}

/**
 * Unit of a value outside metricSpecs(): the first time-unit word of
 * its name ("lbo.min_heap.search_s.jme" is in s, "cell_ms_p50" in
 * ms), else a count.
 */
std::string
detailUnit(const std::string &name)
{
    std::string word;
    for (std::size_t i = 0; i <= name.size(); ++i) {
        if (i < name.size() && name[i] != '.' && name[i] != '_') {
            word.push_back(name[i]);
            continue;
        }
        if (word == "s" || word == "ms" || word == "us" || word == "ns")
            return word;
        word.clear();
    }
    return "count";
}

double
medianWall(const std::vector<ChildRun> &runs)
{
    return medianOf(
        collect(runs, [](const ChildRun &r) { return r.wallS; }));
}

/** The median of @p samples (0 when there are none) under @p name. */
MetricResult
metric(const std::string &name, std::vector<double> samples)
{
    MetricResult m;
    m.name = name;
    const MetricSpec *spec = findMetric(name);
    m.unit = spec != nullptr ? spec->unit : detailUnit(name);
    if (samples.empty())
        samples.push_back(0.0);
    m.value = medianOf(samples);
    m.samples = std::move(samples);
    return m;
}

/** End-to-end metrics from the untraced reps. */
std::vector<MetricResult>
endToEnd(const WorkloadRun &w)
{
    const auto &reps = w.untraced;
    return {
        metric("wall_s",
               collect(reps, [](const ChildRun &r) { return r.wallS; })),
        metric("setup_s",
               collect(reps, [](const ChildRun &r) { return r.setupS; })),
        metric("cpu_s",
               collect(reps, [](const ChildRun &r) { return r.cpuS; })),
        metric("sim_cycles_per_s",
               collect(reps,
                       [](const ChildRun &r) {
                           return r.out.simCycles / (r.wallS - r.setupS);
                       })),
        metric("peak_rss_mib",
               collect(reps, [](const ChildRun &r) { return r.rssMiB; })),
    };
}

/** Per-layer metrics from the traced reps and the companions. */
std::vector<MetricResult>
perLayer(const WorkloadRun &w)
{
    const ChildRun *comp = w.haveCompanions && w.companions.ok
        ? &w.companions
        : nullptr;
    auto fromTraced = [&](const std::string &name) {
        return medianOf(collectValue(w.traced, name));
    };
    auto fromCompanions = [&](const std::string &name) {
        return comp != nullptr ? comp->out.value(name) : 0.0;
    };
    double untraced_wall = medianWall(w.untraced);
    double traced_wall = medianWall(w.traced);

    std::vector<MetricResult> out;
    for (const MetricSpec &spec : metricSpecs()) {
        if (spec.endToEnd)
            continue;
        std::vector<double> samples;
        if (spec.name == "lbo.min_heap.share") {
            for (const ChildRun &r : w.traced) {
                if (r.ok)
                    samples.push_back(r.out.value("lbo.min_heap.s") /
                                      r.wallS);
            }
        } else if (spec.name == "lbo.pool.efficiency") {
            double inproc = fromCompanions("lbo.sweep.inproc_s") +
                fromCompanions("serve.fleet.inproc_s");
            double pooled = fromTraced("lbo.sweep.run_s") +
                fromTraced("serve.fleet.s.blind");
            samples.push_back(pooled > 0.0 ? inproc / (poolWidth * pooled)
                                           : 0.0);
        } else if (spec.name == "trace.overhead_share") {
            samples.push_back(untraced_wall > 0.0
                                  ? (traced_wall - untraced_wall) /
                                      untraced_wall
                                  : 0.0);
        } else if (comp != nullptr &&
                   std::any_of(comp->out.values.begin(),
                               comp->out.values.end(), [&](const auto &kv) {
                                   return kv.first == spec.name;
                               })) {
            samples.push_back(fromCompanions(spec.name));
        } else {
            samples = collectValue(w.traced, spec.name);
        }
        out.push_back(metric(spec.name, std::move(samples)));
    }
    return out;
}

/** Every other value the children reported, for the table and --out. */
std::vector<MetricResult>
details(const WorkloadRun &w, bool trace)
{
    std::vector<MetricResult> out;
    const std::vector<ChildRun> &reps = trace ? w.traced : w.untraced;
    std::vector<double> cells;
    for (const ChildRun &r : reps) {
        if (r.ok)
            cells.insert(cells.end(), r.out.cellMs.begin(),
                         r.out.cellMs.end());
    }
    if (trace && w.haveCompanions && w.companions.ok)
        cells.insert(cells.end(), w.companions.out.cellMs.begin(),
                     w.companions.out.cellMs.end());
    if (!cells.empty()) {
        out.push_back(metric("cell_ms_p50",
                             {percentile(cells, 50.0)}));
        double tail = tailPercentile(cells.size());
        if (tail > 0.0) {
            char name[32];
            std::snprintf(name, sizeof name, "cell_ms_p%g", tail);
            out.push_back(metric(name, {percentile(cells, tail)}));
        }
        out.push_back(metric("cell_n",
                             {static_cast<double>(cells.size())}));
    }
    if (!trace)
        return out;
    std::vector<std::string> seen;
    auto add = [&](const std::string &name, std::vector<double> samples) {
        if (findMetric(name) != nullptr ||
            std::find(seen.begin(), seen.end(), name) != seen.end())
            return;
        seen.push_back(name);
        out.push_back(metric(name, std::move(samples)));
    };
    for (const ChildRun &r : w.traced) {
        if (!r.ok)
            continue;
        for (const auto &kv : r.out.values)
            add(kv.first, collectValue(w.traced, kv.first));
    }
    if (w.haveCompanions && w.companions.ok) {
        for (const auto &[name, v] : w.companions.out.values)
            add(name, {v});
    }
    return out;
}

/**
 * Host cost of recording one span, timed here: with few reps per run
 * the traced-minus-untraced wall difference is mostly host noise, so
 * the report also bounds the overhead from the spans actually kept.
 */
double
spanCostSec()
{
    constexpr int calls = 20000;
    SpanLog log(true);
    HostTimer timer;
    for (int i = 0; i < calls; ++i)
        SpanLog::Scope scope(log, "lbo::runOne calibration/G1", "lbo.run");
    return timer.elapsedSec() / calls;
}

/** Per-layer self time of the traced reps (median per rep). */
void
printSelfTimes(const WorkloadRun &w)
{
    std::vector<double> self = selfTimes(w.spans);
    std::map<std::string, std::map<unsigned, double>> by_layer;
    for (std::size_t i = 0; i < w.spans.size(); ++i)
        by_layer[w.spans[i].layer][w.spans[i].rep] += self[i];
    double wall = medianWall(w.traced);
    std::printf("  layer self time (traced reps: median per rep; "
                "companions: total)\n");
    for (const auto &[layer, reps] : by_layer) {
        std::vector<double> traced;
        double companion = 0.0;
        for (const auto &[rep, sec] : reps) {
            if (rep >= companionRep)
                companion += sec;
            else
                traced.push_back(sec);
        }
        std::printf("    %-14s %10.4f s  %6.1f%% of wall_s   companions "
                    "%8.4f s\n",
                    layer.c_str(), medianOf(traced),
                    wall > 0.0 ? 100.0 * medianOf(traced) / wall : 0.0,
                    companion);
    }
}

void
printMetrics(const std::vector<MetricResult> &metrics)
{
    for (const MetricResult &m : metrics) {
        Quartiles q = quartiles(m.samples);
        std::printf("  %-34s %16.6g %-9s [q1 %.6g, q3 %.6g, n %zu]\n",
                    m.name.c_str(), m.value, m.unit.c_str(), q.q1, q.q3,
                    m.samples.size());
    }
}

// ----- --compare -----------------------------------------------------

std::vector<Results>
loadSide(const std::string &list)
{
    std::vector<Results> side;
    std::stringstream ss(list);
    std::string path;
    while (std::getline(ss, path, ',')) {
        std::ifstream in(path, std::ios::binary);
        if (!in)
            usage(("--compare: cannot open " + path).c_str());
        std::ostringstream text;
        text << in.rdbuf();
        Results r;
        std::string error;
        if (!parseResults(text.str(), &r, &error))
            usage(("--compare: " + path + ": " + error).c_str());
        side.push_back(std::move(r));
    }
    if (side.empty())
        usage("--compare: empty file list");
    return side;
}

/**
 * One side's samples of (workload, metric): each file's reported value
 * when the side has several files (one value per benchmark run), or
 * the per-rep samples of a single file.
 */
std::vector<double>
sideSamples(const std::vector<Results> &side, const std::string &workload,
            const std::string &name)
{
    std::vector<double> v;
    for (const Results &r : side) {
        const WorkloadResult *w = r.find(workload);
        const MetricResult *m = w != nullptr ? w->find(name) : nullptr;
        if (m == nullptr)
            continue;
        if (side.size() == 1)
            v = m->samples;
        else
            v.push_back(m->value);
    }
    return v;
}

int
compareMain(const std::string &a_list, const std::string &b_list)
{
    std::vector<Results> a = loadSide(a_list);
    std::vector<Results> b = loadSide(b_list);
    std::vector<std::string> workloads;
    for (const Results &r : a) {
        for (const WorkloadResult &w : r.workloads) {
            if (std::find(workloads.begin(), workloads.end(), w.name) ==
                workloads.end())
                workloads.push_back(w.name);
        }
    }
    int disagreements = 0;
    std::printf("%-15s %-17s %-9s %38s %38s %7s  %s\n", "workload", "metric",
                "unit", "A median [q1, q3] n", "B median [q1, q3] n", "bound",
                "verdict");
    for (const std::string &workload : workloads) {
        for (const MetricSpec &spec : metricSpecs()) {
            if (!spec.endToEnd)
                continue;
            std::vector<double> sa = sideSamples(a, workload, spec.name);
            std::vector<double> sb = sideSamples(b, workload, spec.name);
            if (sa.empty() || sb.empty()) {
                std::printf("%-15s %-17s missing on one side\n",
                            workload.c_str(), spec.name.c_str());
                ++disagreements;
                continue;
            }
            Quartiles qa = quartiles(sa), qb = quartiles(sb);
            Verdict v = compareSets(spec, qa, qb);
            if (v == Verdict::Worse || v == Verdict::Unresolved)
                ++disagreements;
            char ca[64], cb[64], bound[16];
            std::snprintf(ca, sizeof ca, "%.4g [%.4g, %.4g] %zu", qa.median,
                          qa.q1, qa.q3, sa.size());
            std::snprintf(cb, sizeof cb, "%.4g [%.4g, %.4g] %zu", qb.median,
                          qb.q1, qb.q3, sb.size());
            std::snprintf(bound, sizeof bound, "%.0f%%", spec.bound * 100.0);
            std::printf("%-15s %-17s %-9s %38s %38s %7s  %s\n",
                        workload.c_str(), spec.name.c_str(),
                        spec.unit.c_str(), ca, cb, bound, verdictName(v));
        }
    }
    std::printf("compare: %d (metric, workload) pair(s) worse or "
                "unresolved\n",
                disagreements);
    return disagreements == 0 ? 0 : 1;
}

} // namespace

int
main(int argc, char **argv)
{
    std::vector<std::string> workloads = workloadNames();
    std::uint64_t seed = 42;
    std::uint64_t reps = 3;
    double seconds = 0.0;
    bool trace = false;
    bool smoke = false;
    std::string spans_path, out_path;
    std::string scratch = ".e2e-scratch";

    for (int i = 1; i < argc; ++i) {
        std::string arg = argv[i];
        auto next = [&]() -> std::string {
            if (i + 1 >= argc)
                usage((arg + " needs a value").c_str());
            return argv[++i];
        };
        if (arg == "--workload") {
            std::string name = next();
            if (name != "all") {
                if (std::find(workloadNames().begin(), workloadNames().end(),
                              name) == workloadNames().end())
                    usage(("unknown workload '" + name + "'").c_str());
                workloads = {name};
            }
        } else if (arg == "--seed") {
            seed = parseCount("--seed", next(), 1ULL << 53);
        } else if (arg == "--reps") {
            reps = parseCount("--reps", next(), 1000);
            if (reps == 0)
                usage("--reps must be at least 1");
        } else if (arg == "--seconds") {
            seconds = static_cast<double>(parseCount("--seconds", next(), 3600));
        } else if (arg == "--trace") {
            std::string v = next();
            if (v != "0" && v != "1")
                usage("--trace takes 0 or 1");
            trace = v == "1";
        } else if (arg == "--spans") {
            spans_path = next();
        } else if (arg == "--out") {
            out_path = next();
        } else if (arg == "--scratch") {
            scratch = next();
        } else if (arg == "--smoke") {
            smoke = true;
        } else if (arg == "--compare") {
            std::string a = next();
            std::string b = next();
            return compareMain(a, b);
        } else {
            usage(("unknown argument '" + arg + "'").c_str());
        }
    }
    if (smoke) {
        workloads = workloadNames();
        reps = 1;
        seconds = 0.0;
        trace = true;
    }

#if defined(__linux__)
    // Orphaned pool children of a killed workload child re-parent to
    // us, so the parent can wait for every process it caused.
    prctl(PR_SET_CHILD_SUBREAPER, 1);
#endif
    std::signal(SIGTERM, onTerminate);
    std::signal(SIGINT, onTerminate);
    std::error_code ec;
    std::filesystem::create_directories(scratch, ec);
    if (ec)
        usage(("cannot create scratch directory " + scratch).c_str());

    std::vector<WorkloadRun> runs(workloads.size());
    for (std::size_t w = 0; w < workloads.size(); ++w)
        runs[w].name = workloads[w];

    unsigned child_seq = 0;
    auto input = [&](const std::string &workload, bool traced) {
        RepInput in;
        in.workload = workload;
        in.seed = seed;
        in.traced = traced;
        in.smoke = smoke;
        in.scratchDir = scratch + "/" + std::to_string(getpid()) + "-" +
            std::to_string(child_seq++);
        return in;
    };

    // Rounds: every workload once (twice when tracing) per round, until
    // --reps rounds ran or the next round would overrun --seconds.
    const std::uint64_t min_rounds = seconds > 0.0 ? (trace ? 2 : 3) : reps;
    HostTimer clock;
    std::vector<double> round_secs;
    for (std::uint64_t round = 0;; ++round) {
        if (round >= min_rounds &&
            (seconds <= 0.0 ||
             clock.elapsedSec() + medianOf(round_secs) > seconds))
            break;
        HostTimer round_clock;
        for (WorkloadRun &w : runs) {
            if (!trace) {
                w.absorb(runChild(input(w.name, false), false), false, false);
                continue;
            }
            // Alternate which pass goes first so host drift within a
            // round does not bias the tracing overhead.
            for (int k = 0; k < 2; ++k) {
                bool traced = (k == 0) == (round % 2 == 1);
                w.absorb(runChild(input(w.name, traced), false), traced,
                         false);
            }
        }
        round_secs.push_back(round_clock.elapsedSec());
        std::fprintf(stderr, "distill_e2e: round %llu done (%.1f s)\n",
                     static_cast<unsigned long long>(round + 1),
                     round_secs.back());
    }
    if (trace) {
        for (WorkloadRun &w : runs)
            w.absorb(runChild(input(w.name, true), true), true, true);
    }

    // ----- Report ------------------------------------------------------
    Results results;
    results.seed = seed;
    results.trace = trace;
    std::vector<std::string> failures;
    std::uint64_t attempted = 0, failed = 0;
    std::string json_metrics;
    std::vector<Span> all_spans;
    for (const WorkloadRun &w : runs) {
        WorkloadResult wr;
        wr.name = w.name;
        wr.attempted = w.attempted;
        wr.failed = w.failed;
        wr.simDigest = w.digest;
        wr.metrics = trace ? perLayer(w) : endToEnd(w);
        std::printf("%s (seed %llu, %zu untraced + %zu traced reps%s)\n",
                    w.name.c_str(), static_cast<unsigned long long>(seed),
                    w.untraced.size(), w.traced.size(),
                    w.haveCompanions ? " + companions" : "");
        printMetrics(wr.metrics);
        for (const MetricResult &m : wr.metrics) {
            json_metrics += json_metrics.empty() ? "" : ", ";
            std::string key =
                runs.size() == 1 ? m.name : w.name + "/" + m.name;
            json_metrics += "\"" + key + "\": {\"value\": " +
                exactNum(m.value) + ", \"unit\": \"" + m.unit + "\"}";
        }
        std::vector<MetricResult> extra = details(w, trace);
        if (!extra.empty()) {
            std::printf("  details:\n");
            printMetrics(extra);
        }
        if (trace) {
            printSelfTimes(w);
            double untraced_wall = medianWall(w.untraced);
            double traced_wall = medianWall(w.traced);
            double spans_per_rep = w.traced.empty()
                ? 0.0
                : static_cast<double>(std::count_if(
                      w.spans.begin(), w.spans.end(),
                      [](const Span &s) { return s.rep < companionRep; })) /
                    static_cast<double>(w.traced.size());
            double recording = spans_per_rep * spanCostSec();
            std::printf("  tracing overhead: traced wall_s %.4f - untraced "
                        "wall_s %.4f = %+.4f s; recording %.0f spans per "
                        "rep costs %.2g s (%.2g%% of wall_s)\n",
                        traced_wall, untraced_wall,
                        traced_wall - untraced_wall, spans_per_rep,
                        recording,
                        untraced_wall > 0.0
                            ? 100.0 * recording / untraced_wall
                            : 0.0);
        }
        std::printf("  sim_digest %s  attempted %llu  failed %llu\n",
                    w.digest.c_str(),
                    static_cast<unsigned long long>(w.attempted),
                    static_cast<unsigned long long>(w.failed));
        wr.metrics.insert(wr.metrics.end(), extra.begin(), extra.end());
        results.workloads.push_back(std::move(wr));
        failures.insert(failures.end(), w.failures.begin(), w.failures.end());
        attempted += w.attempted;
        failed += w.failed;
        all_spans.insert(all_spans.end(), w.spans.begin(), w.spans.end());
    }

    if (trace) {
        if (spans_path.empty()) {
            spans_path = scratch + "/spans-" +
                (runs.size() == 1 ? runs[0].name : std::string("all")) +
                ".json";
        }
        // Parents index within each workload's list; rebase them.
        std::size_t base = 0;
        for (const WorkloadRun &w : runs) {
            for (std::size_t i = 0; i < w.spans.size(); ++i) {
                Span &s = all_spans[base + i];
                if (s.parent >= 0)
                    s.parent += static_cast<int>(base);
            }
            base += w.spans.size();
        }
        std::string text = chromeTrace(all_spans);
        trace::TraceCheck check = trace::checkTrace(text);
        std::ofstream file(spans_path, std::ios::binary | std::ios::trunc);
        file << text;
        file.close();
        if (!check.ok || !file)
            failures.push_back("spans: cannot write valid trace " +
                               spans_path + " (" + check.error + ")");
        else
            std::printf("wrote %zu spans to %s\n", all_spans.size(),
                        spans_path.c_str());
    }
    if (!out_path.empty()) {
        std::ofstream file(out_path, std::ios::binary | std::ios::trunc);
        file << writeResults(results);
        file.close();
        if (!file)
            failures.push_back("out: cannot write " + out_path);
    }
    std::filesystem::remove(scratch, ec); // only when empty

    for (const std::string &f : failures)
        std::fprintf(stderr, "check failed: %s\n", f.c_str());
    bool correct = failures.empty();
    // A failed cross-rep check (digest, pooled-vs-inprocess) fails the
    // run even when every cell completed.
    if (!correct && failed == 0)
        failed = 1;
    std::printf("{\"correct\": %s, \"attempted\": %llu, \"failed\": %llu, "
                "\"metrics\": {%s}}\n",
                correct ? "true" : "false",
                static_cast<unsigned long long>(std::max<std::uint64_t>(
                    attempted, 1)),
                static_cast<unsigned long long>(failed),
                json_metrics.c_str());
    return correct ? 0 : 1;
}
