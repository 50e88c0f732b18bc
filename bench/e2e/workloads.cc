#include "workloads.hh"

#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <map>
#include <memory>
#include <sstream>

#include "base/host_timer.hh"
#include "base/types.hh"
#include "heap/layout.hh"
#include "lbo/min_heap.hh"
#include "lbo/run.hh"
#include "lbo/sweep.hh"
#include "serve/fleet.hh"
#include "sim/scheduler.hh"
#include "sim/thread.hh"
#include "wl/suite.hh"

#include "results.hh"

namespace distill::e2e
{

namespace
{

using gc::CollectorKind;

/** Children the pooled calls keep in flight (the 4-core host's nproc). */
constexpr unsigned poolJobs = 4;

/**
 * G1 minimum heaps in regions, as MinHeapFinder measures them. Only
 * sweep-cold probes; the other workloads pin these, as distill_bench
 * does, so a probing change shows on sweep-cold alone.
 */
std::uint64_t
pinnedMinHeapRegions(const std::string &bench)
{
    static const std::map<std::string, std::uint64_t> regions = {
        {"jme", 10},     {"avrora", 10}, {"h2", 53},
        {"sunflow", 22}, {"xalan", 31},  {"lusearch", 28},
    };
    return regions.at(bench);
}

wl::WorkloadSpec
pinnedSpec(const std::string &bench)
{
    wl::WorkloadSpec spec = wl::findSpec(bench);
    spec.minHeapBytes = pinnedMinHeapRegions(bench) * heap::regionSize;
    return spec;
}

/** Heap for @p factor, rounded exactly as SweepRunner rounds it. */
std::uint64_t
heapFor(const wl::WorkloadSpec &spec, double factor)
{
    return roundUp(static_cast<std::uint64_t>(
                       factor * static_cast<double>(spec.minHeapBytes)),
                   heap::regionSize);
}

// ----- Grids ---------------------------------------------------------
//
// Each full rep takes roughly 3-4 s on a 4-core host, so a 20 s run
// reports a median over five or more reps. README.md records the
// measurements behind each choice.

struct Cell
{
    std::string bench;
    CollectorKind collector;
    double factor;
};

/** Benchmarks x collectors at one factor, Epsilon first per bench. */
std::vector<Cell>
cross(const std::vector<std::string> &benches,
      const std::vector<CollectorKind> &collectors, double factor)
{
    std::vector<Cell> cells;
    for (const std::string &bench : benches) {
        for (CollectorKind kind : collectors)
            cells.push_back({bench, kind, factor});
    }
    return cells;
}

struct Matrix
{
    std::vector<Cell> cells; //!< per invocation, in run order
    unsigned invocations;
};

Matrix
matrixFor(const std::string &workload, bool smoke)
{
    if (workload == "matrix-mutator") {
        // 6.0x: collectors idle most of the run, so cells cost close
        // to their Epsilon twin and the mutator paths dominate.
        const std::vector<CollectorKind> kinds = {
            CollectorKind::Epsilon, CollectorKind::Serial,
            CollectorKind::Parallel, CollectorKind::G1};
        if (smoke)
            return {cross({"jme", "avrora"}, kinds, 6.0), 1};
        return {cross({"jme", "avrora", "h2", "sunflow"}, kinds, 6.0), 2};
    }
    // matrix-gc, 1.4x: every collector works hard; the slow
    // concurrent collectors set the tail.
    const std::vector<CollectorKind> kinds = {
        CollectorKind::Epsilon, CollectorKind::Serial,
        CollectorKind::Parallel, CollectorKind::G1,
        CollectorKind::Shenandoah};
    if (smoke) {
        return {cross({"lusearch"},
                      {CollectorKind::Epsilon, CollectorKind::G1}, 1.4),
                1};
    }
    Matrix m{cross({"h2", "lusearch"}, kinds, 1.4), 1};
    // ZGC needs more headroom than 1.4x on h2 (one OOM in two
    // invocations there); 1.6x completes on every seed tried.
    m.cells.push_back({"h2", CollectorKind::Zgc, 1.6});
    return m;
}

struct SweepGrid
{
    std::vector<std::string> benches;
    std::vector<double> factors;
    std::vector<CollectorKind> collectors;
};

SweepGrid
sweepGrid(bool smoke)
{
    // ZGC stays out: it OOMs at 2.0-3.0x on the allocation-heavy
    // benchmarks, and a sweep-cold failure would be a model property,
    // not a host-time signal.
    SweepGrid g;
    g.benches = smoke ? std::vector<std::string>{"jme", "fop"}
                      : std::vector<std::string>{"jme", "fop", "biojava",
                                                 "batik"};
    g.factors = {2.0, 3.0};
    g.collectors = {CollectorKind::Serial, CollectorKind::Parallel,
                    CollectorKind::G1, CollectorKind::Shenandoah};
    return g;
}

/** Fleet size and per-instance request share. */
struct FleetShape
{
    unsigned instances;
    double requestShare; //!< of resolveArrival's default request count
};

FleetShape
fleetShape(bool smoke)
{
    return smoke ? FleetShape{4, 0.25} : FleetShape{16, 0.5};
}

// ----- Record checks and accounting ----------------------------------

void
fail(RepOutput &out, const std::string &check, const std::string &detail)
{
    out.failures.push_back(check + ": " + detail);
}

/**
 * FNV-1a over each record's canonical CSV row with the host-dependent
 * columns (notes, sidecar, signature) blanked: identical simulated
 * statistics give an identical digest on any host and pool width.
 */
std::string
simDigest(const std::vector<lbo::RunRecord> &records)
{
    std::uint64_t h = 0xcbf29ce484222325ULL;
    for (const lbo::RunRecord &record : records) {
        lbo::RunRecord canonical = record;
        canonical.notes.clear();
        canonical.sidecar.clear();
        canonical.signature.clear();
        std::string row = canonical.toCsv();
        row.push_back('\n');
        for (unsigned char c : row) {
            h ^= c;
            h *= 0x100000001b3ULL;
        }
    }
    char buf[24];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
}

/** Count @p records as attempted; each not ok fails the status check. */
void
checkStatus(const std::vector<lbo::RunRecord> &records, RepOutput &out)
{
    for (const lbo::RunRecord &r : records) {
        ++out.attempted;
        if (r.failed() || !r.completed) {
            ++out.failed;
            fail(out, "status",
                 r.bench + "/" + r.collector + " invocation " +
                     std::to_string(r.invocation) + " is " + r.status +
                     (r.failReason.empty() ? "" : " (" + r.failReason + ")"));
        }
    }
}

double
sumCycles(const std::vector<lbo::RunRecord> &records)
{
    double cycles = 0.0;
    for (const lbo::RunRecord &r : records)
        cycles += r.cycles;
    return cycles;
}

/** gc.pauses and gc.steal_hit_ratio over @p records. */
void
gcCounters(const std::vector<lbo::RunRecord> &records, RepOutput &out)
{
    double pauses = 0.0, attempts = 0.0, hits = 0.0;
    for (const lbo::RunRecord &r : records) {
        pauses += static_cast<double>(r.pauses);
        attempts += static_cast<double>(r.stealAttempts);
        hits += static_cast<double>(r.stealHits);
    }
    out.values.emplace_back("gc.pauses", pauses);
    out.values.emplace_back("gc.steal_hit_ratio",
                            attempts > 0.0 ? hits / attempts : 0.0);
}

/**
 * Write @p records as a CSV file and read it back, timing both
 * directions; every row must parse and re-serialise byte-identically.
 */
void
csvRoundTrip(const std::vector<lbo::RunRecord> &records,
             const std::string &path, SpanLog &log, RepOutput &out)
{
    std::vector<std::string> rows;
    rows.reserve(records.size());
    bool written = false;
    {
        SpanLog::Scope span(log, "RunRecord::toCsv", "lbo.record");
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << lbo::RunRecord::csvHeader() << '\n';
        for (const lbo::RunRecord &r : records) {
            rows.push_back(r.toCsv());
            file << rows.back() << '\n';
        }
        file.close();
        written = static_cast<bool>(file);
        out.values.emplace_back("lbo.record.csv_write_ms",
                                span.elapsedSec() * 1e3);
    }
    std::vector<lbo::RunRecord> parsed;
    parsed.reserve(records.size());
    std::string header;
    std::size_t unparsed = 0;
    {
        SpanLog::Scope span(log, "RunRecord::fromCsv", "lbo.record");
        std::ifstream file(path, std::ios::binary);
        std::getline(file, header);
        std::string line;
        while (std::getline(file, line)) {
            lbo::RunRecord r;
            if (!lbo::RunRecord::fromCsv(line, r))
                ++unparsed;
            parsed.push_back(std::move(r));
        }
        out.values.emplace_back("lbo.record.csv_read_ms",
                                span.elapsedSec() * 1e3);
    }
    if (!written || header != lbo::RunRecord::csvHeader() ||
        parsed.size() != rows.size() || unparsed != 0) {
        fail(out, "csv-roundtrip",
             path + ": wrote " + std::to_string(rows.size()) +
                 " rows, read back " + std::to_string(parsed.size()) +
                 " (" + std::to_string(unparsed) + " unparseable)");
        return;
    }
    for (std::size_t i = 0; i < rows.size(); ++i) {
        if (parsed[i].toCsv() != rows[i]) {
            fail(out, "csv-roundtrip",
                 "row " + std::to_string(i) + " (" + records[i].bench + "/" +
                     records[i].collector +
                     ") does not re-serialise identically");
        }
    }
}

/**
 * The paper's LBO applied to host time: each collector cell against
 * the Epsilon cell of the same benchmark and invocation seed.
 */
class HostLbo
{
  public:
    void
    epsilon(const lbo::RunRecord &r, double sec)
    {
        epsilonSec_[{r.bench, r.seed}] = sec;
        mutatorSec_ += sec;
        mutatorKib_ += static_cast<double>(r.bytesAllocated) / 1024.0;
    }

    void
    collector(const lbo::RunRecord &r, double sec)
    {
        auto base = epsilonSec_.find({r.bench, r.seed});
        if (base == epsilonSec_.end())
            return;
        auto &[coll, eps] = byCollector_[r.collector];
        coll += sec;
        eps += base->second;
        collectorSec_ += sec;
        gcSec_ += sec - base->second;
        gcKcycles_ += r.gcThreadCycles / 1000.0;
    }

    void
    report(RepOutput &out) const
    {
        auto ratio = [](double a, double b) { return b > 0.0 ? a / b : 0.0; };
        out.values.emplace_back("mutator.host_s", mutatorSec_);
        out.values.emplace_back("mutator.ns_per_kib",
                                ratio(mutatorSec_ * 1e9, mutatorKib_));
        out.values.emplace_back("gc.host_s", gcSec_);
        out.values.emplace_back("gc.host_share", ratio(gcSec_, collectorSec_));
        out.values.emplace_back("gc.ns_per_kcycle",
                                ratio(gcSec_ * 1e9, gcKcycles_));
        for (const auto &[name, pair] : byCollector_) {
            out.values.emplace_back("gc.host_lbo." + name,
                                    ratio(pair.first, pair.second));
        }
    }

  private:
    std::map<std::pair<std::string, std::uint64_t>, double> epsilonSec_;
    std::map<std::string, std::pair<double, double>> byCollector_;
    double mutatorSec_ = 0.0, mutatorKib_ = 0.0;
    double collectorSec_ = 0.0, gcSec_ = 0.0, gcKcycles_ = 0.0;
};

std::string
cellLabel(const lbo::RunRecord &r)
{
    char factor[16];
    std::snprintf(factor, sizeof factor, "%.1f", r.heapFactor);
    return r.bench + "/" + r.collector + "/" + factor + "/" +
        std::to_string(r.invocation);
}

// ----- Scheduler dispatch probe --------------------------------------

/**
 * Consumes its whole quantum each round and naps every 64 rounds, so
 * a timed Scheduler::run isolates the round machinery (selection,
 * dispatch, sleeper wakeup, clock advance) from runtime and GC work.
 */
class SpinThread : public sim::SimThread
{
  public:
    SpinThread(const sim::Scheduler &sched, unsigned id,
               std::uint64_t rounds)
        : SimThread("spin-" + std::to_string(id), Kind::Mutator),
          sched_(sched), left_(rounds)
    {
    }

    Cycles
    run(Cycles budget) override
    {
        if (left_ == 0) {
            finish();
            return 0;
        }
        --left_;
        if ((left_ & 63) == 0)
            sleepUntil(sched_.now() + 1);
        return budget;
    }

  private:
    const sim::Scheduler &sched_;
    std::uint64_t left_;
};

/** Host ns per dispatch of an 8-thread spin loop (median of 5). */
double
dispatchNs(SpanLog &log, RepOutput &out)
{
    constexpr unsigned threads = 8;
    constexpr std::uint64_t rounds = 20'000;
    std::vector<double> samples;
    for (int i = 0; i < 5; ++i) {
        sim::MachineConfig machine;
        machine.maxVirtualTime = ~static_cast<Ticks>(0) / 2;
        sim::Scheduler scheduler(machine);
        std::vector<std::unique_ptr<SpinThread>> spin;
        for (unsigned t = 0; t < threads; ++t) {
            spin.push_back(
                std::make_unique<SpinThread>(scheduler, t, rounds));
            scheduler.addThread(spin.back().get());
        }
        SpanLog::Scope span(log, "sim::Scheduler::run spin", "sim");
        if (!scheduler.run({}) || scheduler.dispatches() == 0) {
            fail(out, "dispatch-probe", "spin loop did not finish");
            return 0.0;
        }
        samples.push_back(span.elapsedSec() * 1e9 /
                          static_cast<double>(scheduler.dispatches()));
    }
    return medianOf(samples);
}

// ----- Workloads -----------------------------------------------------

/**
 * Point the on-disk caches at this child's private directory, and
 * enable them whatever the caller's environment says: a cold sweep
 * user writes its min-heap and run caches.
 */
void
useScratchCaches(const RepInput &in)
{
    setenv("DISTILL_CACHE_DIR", in.scratchDir.c_str(), 1);
    unsetenv("DISTILL_NO_CACHE");
}

lbo::SweepConfig
sweepConfig(const RepInput &in, const std::vector<wl::WorkloadSpec> &specs)
{
    SweepGrid grid = sweepGrid(in.smoke);
    lbo::SweepConfig config;
    config.benchmarks = specs;
    config.heapFactors = grid.factors;
    config.collectors = grid.collectors;
    config.includeEpsilon = true;
    config.invocations = 1;
    config.baseSeed = in.seed;
    return config;
}

std::vector<wl::WorkloadSpec>
sweepSpecs(bool smoke)
{
    std::vector<wl::WorkloadSpec> specs;
    for (const std::string &bench : sweepGrid(smoke).benches)
        specs.push_back(wl::findSpec(bench));
    return specs;
}

RepOutput
sweepCold(const RepInput &in, SpanLog &log)
{
    RepOutput out;
    useScratchCaches(in);
    std::vector<wl::WorkloadSpec> specs = sweepSpecs(in.smoke);
    const lbo::Environment env;
    {
        SpanLog::Scope span(log, "MinHeapFinder::measureAll",
                            "lbo.min_heap");
        lbo::MinHeapFinder finder;
        finder.measureAll(specs, env, poolJobs);
        for (wl::WorkloadSpec &spec : specs)
            spec.minHeapBytes = finder.minHeap(spec, env);
        out.values.emplace_back("lbo.min_heap.s", span.elapsedSec());
    }
    out.firstCallNs = nowNs();
    std::vector<lbo::RunRecord> records;
    {
        SpanLog::Scope span(log, "SweepRunner::run", "lbo.sweep");
        lbo::SweepConfig config = sweepConfig(in, specs);
        config.jobs = poolJobs;
        lbo::SweepRunner runner;
        records = runner.run(config);
        out.values.emplace_back("lbo.sweep.run_s", span.elapsedSec());
    }
    csvRoundTrip(records, in.scratchDir + "/grid.csv", log, out);
    checkStatus(records, out);
    gcCounters(records, out);
    out.simCycles = sumCycles(records);
    out.digest = out.pooledDigest = simDigest(records);
    return out;
}

RepOutput
sweepColdCompanions(const RepInput &in, SpanLog &log)
{
    RepOutput out;
    useScratchCaches(in);
    std::vector<wl::WorkloadSpec> specs = sweepSpecs(in.smoke);
    const lbo::Environment env;
    for (wl::WorkloadSpec &spec : specs) {
        SpanLog::Scope span(log, "MinHeapFinder::search " + spec.name,
                            "lbo.min_heap");
        spec.minHeapBytes = lbo::MinHeapFinder::search(spec, env);
        out.values.emplace_back("lbo.min_heap.search_s." + spec.name,
                                span.elapsedSec());
    }
    // The same grid in-process (jobs 1): its records must match the
    // pooled ones byte for byte, and the gaps between onRecord
    // callbacks time each cell.
    HostLbo lbo;
    std::int64_t last = 0;
    lbo::SweepConfig config = sweepConfig(in, specs);
    config.jobs = 1;
    config.onRecord = [&](const lbo::RunRecord &r) {
        std::int64_t now = nowNs();
        double sec = static_cast<double>(now - last) * 1e-9;
        log.record("cell " + cellLabel(r), "lbo.run", last, now);
        out.cellMs.push_back(sec * 1e3);
        if (r.collector == gc::collectorName(CollectorKind::Epsilon))
            lbo.epsilon(r, sec);
        else
            lbo.collector(r, sec);
        last = nowNs();
    };
    std::vector<lbo::RunRecord> records;
    {
        SpanLog::Scope span(log, "SweepRunner::run jobs=1", "lbo.sweep");
        lbo::SweepRunner runner;
        last = nowNs();
        records = runner.run(config);
        out.values.emplace_back("lbo.sweep.inproc_s", span.elapsedSec());
    }
    lbo.report(out);
    checkStatus(records, out);
    out.pooledDigest = simDigest(records);
    return out;
}

RepOutput
matrix(const RepInput &in, SpanLog &log)
{
    RepOutput out;
    Matrix m = matrixFor(in.workload, in.smoke);
    std::map<std::string, wl::WorkloadSpec> specs;
    for (const Cell &cell : m.cells)
        specs.emplace(cell.bench, pinnedSpec(cell.bench));
    const lbo::Environment env;

    std::vector<lbo::RunRecord> records;
    HostLbo lbo;
    double dispatches = 0.0;
    out.firstCallNs = nowNs();
    for (unsigned inv = 0; inv < m.invocations; ++inv) {
        for (const Cell &cell : m.cells) {
            const wl::WorkloadSpec &spec = specs.at(cell.bench);
            bool epsilon = cell.collector == CollectorKind::Epsilon;
            lbo::RunExtras extras;
            lbo::RunRecord r;
            double sec = 0.0;
            {
                SpanLog::Scope span(
                    log,
                    "lbo::runOne " + cell.bench + "/" +
                        gc::collectorName(cell.collector),
                    "lbo.run");
                r = lbo::runOne(spec, cell.collector,
                                epsilon ? 0 : heapFor(spec, cell.factor),
                                epsilon ? 0.0 : cell.factor,
                                lbo::invocationSeed(in.seed, cell.bench, inv),
                                inv, env, &extras);
                sec = span.elapsedSec();
            }
            out.cellMs.push_back(sec * 1e3);
            dispatches += static_cast<double>(extras.schedDispatches);
            if (epsilon)
                lbo.epsilon(r, sec);
            else
                lbo.collector(r, sec);
            records.push_back(std::move(r));
        }
    }
    csvRoundTrip(records, in.scratchDir + "/cells.csv", log, out);
    checkStatus(records, out);
    gcCounters(records, out);
    lbo.report(out);
    out.values.emplace_back("sim.dispatches", dispatches);
    out.simCycles = sumCycles(records);
    out.digest = simDigest(records);
    return out;
}

serve::FleetConfig
fleetConfig(const RepInput &in)
{
    FleetShape shape = fleetShape(in.smoke);
    serve::ServeConfig base;
    base.spec = pinnedSpec("lusearch");
    base.collector = CollectorKind::G1;
    base.heapFactor = 3.0;
    base.heapBytes = heapFor(base.spec, base.heapFactor);
    base.seed = lbo::invocationSeed(in.seed, "fleet-serve", 0);
    base.serveSeed = lbo::invocationSeed(in.seed, "fleet-serve", 1);
    // Protection stays off: at load >= 0.5 its shedding marks
    // instances failed, which would make the workload fail by design.
    base.arrival.loadFactor = 0.8;
    base.arrival.requests = static_cast<std::uint64_t>(
        shape.requestShare *
        static_cast<double>(serve::resolveArrival(base).requests));

    serve::FleetConfig fc;
    fc.base = base;
    fc.instances = shape.instances;
    fc.jobs = poolJobs;
    return fc;
}

std::vector<lbo::RunRecord>
instanceRecords(const serve::FleetResult &fr)
{
    std::vector<lbo::RunRecord> records;
    for (const serve::ServeResult &inst : fr.instances)
        records.push_back(inst.record);
    return records;
}

/** Fleet-wide and per-instance serve conservation. */
void
checkConservation(const serve::FleetResult &fr, const std::string &label,
                  RepOutput &out)
{
    if (!fr.counters.conserves())
        fail(out, "serve-conservation", label + ": fleet counters");
    for (std::size_t i = 0; i < fr.instances.size(); ++i) {
        if (!fr.instances[i].counters.conserves()) {
            fail(out, "serve-conservation",
                 label + ": instance " + std::to_string(i));
        }
    }
}

RepOutput
fleetServe(const RepInput &in, SpanLog &log)
{
    RepOutput out;
    serve::FleetConfig fc = fleetConfig(in);
    std::vector<lbo::RunRecord> records;
    std::vector<serve::BusyWindows> blind_adverts;
    double completed = 0.0;
    out.firstCallNs = nowNs();
    for (serve::Balancer mode :
         {serve::Balancer::Blind, serve::Balancer::Aware,
          serve::Balancer::Jsq, serve::Balancer::P2c}) {
        const std::string name = serve::balancerName(mode);
        fc.balancer = mode;
        // The aware pass reuses the blind pass's adverts, as
        // distill_serve --balancer all does.
        fc.adverts = mode == serve::Balancer::Aware
            ? blind_adverts
            : std::vector<serve::BusyWindows>{};
        serve::FleetResult fr;
        {
            SpanLog::Scope span(log, "serve::runFleet " + name,
                                "serve.fleet");
            fr = serve::runFleet(fc);
            out.values.emplace_back("serve.fleet.s." + name,
                                    span.elapsedSec());
        }
        checkConservation(fr, name, out);
        completed += static_cast<double>(fr.counters.completed);
        std::vector<lbo::RunRecord> fleet_records = instanceRecords(fr);
        if (mode == serve::Balancer::Blind) {
            for (const serve::ServeResult &inst : fr.instances)
                blind_adverts.push_back(inst.busyWindows);
            out.pooledDigest = simDigest(fleet_records);
            out.values.emplace_back(
                "serve.metered_p99_sim_ns",
                static_cast<double>(fr.metered.percentile(99.0)));
        }
        records.insert(records.end(), fleet_records.begin(),
                       fleet_records.end());
    }
    csvRoundTrip(records, in.scratchDir + "/instances.csv", log, out);
    checkStatus(records, out);
    gcCounters(records, out);
    out.values.emplace_back("serve.requests_completed", completed);
    out.simCycles = sumCycles(records);
    out.digest = simDigest(records);
    return out;
}

/** Sums of a fleet's instance records, as one LBO cell. */
lbo::RunRecord
fleetTotals(const serve::FleetResult &fr, const char *collector)
{
    lbo::RunRecord total;
    total.bench = "fleet";
    total.collector = collector;
    for (const serve::ServeResult &inst : fr.instances) {
        total.bytesAllocated += inst.record.bytesAllocated;
        total.gcThreadCycles += inst.record.gcThreadCycles;
    }
    return total;
}

RepOutput
fleetServeCompanions(const RepInput &in, SpanLog &log)
{
    RepOutput out;
    serve::FleetConfig fc = fleetConfig(in);
    fc.balancer = serve::Balancer::Blind;
    fc.jobs = 1;
    serve::FleetResult g1, epsilon;
    double g1_sec = 0.0, epsilon_sec = 0.0;
    {
        SpanLog::Scope span(log, "serve::runFleet blind jobs=1",
                            "serve.fleet");
        g1 = serve::runFleet(fc);
        g1_sec = span.elapsedSec();
    }
    out.values.emplace_back("serve.fleet.inproc_s", g1_sec);
    std::vector<lbo::RunRecord> g1_records = instanceRecords(g1);
    out.pooledDigest = simDigest(g1_records);
    {
        // Epsilon twin of the blind fleet: same split seeds and
        // round-robin routing, so the difference is collector work.
        fc.base.collector = CollectorKind::Epsilon;
        SpanLog::Scope span(log, "serve::runFleet blind Epsilon jobs=1",
                            "serve.fleet");
        epsilon = serve::runFleet(fc);
        epsilon_sec = span.elapsedSec();
    }
    HostLbo lbo;
    lbo.epsilon(fleetTotals(epsilon, "Epsilon"), epsilon_sec);
    lbo.collector(fleetTotals(g1, "G1"), g1_sec);
    lbo.report(out);
    checkConservation(g1, "blind jobs=1", out);
    checkConservation(epsilon, "blind Epsilon jobs=1", out);
    checkStatus(g1_records, out);
    checkStatus(instanceRecords(epsilon), out);

    // Child-payload codec, per instance result; repeated because one
    // call takes microseconds.
    constexpr int repeats = 20;
    double encode_sec = 0.0, decode_sec = 0.0;
    for (const serve::ServeResult &inst : g1.instances) {
        std::string payload;
        {
            SpanLog::Scope span(log, "serve::encodeServeResult",
                                "serve.codec");
            for (int i = 0; i < repeats; ++i)
                payload = serve::encodeServeResult(inst);
            encode_sec += span.elapsedSec();
        }
        serve::ServeResult decoded;
        bool ok = true;
        {
            SpanLog::Scope span(log, "serve::decodeServeResult",
                                "serve.codec");
            for (int i = 0; i < repeats; ++i)
                ok = serve::decodeServeResult(payload, decoded) && ok;
            decode_sec += span.elapsedSec();
        }
        if (!ok || serve::encodeServeResult(decoded) != payload)
            fail(out, "codec-roundtrip", inst.record.bench);
    }
    double calls = static_cast<double>(repeats * g1.instances.size());
    out.values.emplace_back("serve.codec.encode_us",
                            encode_sec * 1e6 / calls);
    out.values.emplace_back("serve.codec.decode_us",
                            decode_sec * 1e6 / calls);
    return out;
}

} // namespace

const std::vector<std::string> &
workloadNames()
{
    static const std::vector<std::string> names = {
        "sweep-cold", "matrix-mutator", "matrix-gc", "fleet-serve"};
    return names;
}

double
RepOutput::value(const std::string &name, double fallback) const
{
    for (const auto &[key, v] : values) {
        if (key == name)
            return v;
    }
    return fallback;
}

RepOutput
runRep(const RepInput &in)
{
    SpanLog log(in.traced);
    RepOutput out = in.workload == "sweep-cold" ? sweepCold(in, log)
        : in.workload == "fleet-serve"          ? fleetServe(in, log)
                                                : matrix(in, log);
    out.spans = log.spans();
    return out;
}

RepOutput
runCompanions(const RepInput &in)
{
    SpanLog log(true);
    RepOutput out = in.workload == "sweep-cold"
        ? sweepColdCompanions(in, log)
        : in.workload == "fleet-serve" ? fleetServeCompanions(in, log)
                                       : RepOutput{};
    out.values.emplace_back("sim.dispatch_ns", dispatchNs(log, out));
    out.spans = log.spans();
    return out;
}

// ----- Child payload -------------------------------------------------

namespace
{

/** Keep a free-text field on one payload line. */
std::string
oneLine(std::string text)
{
    for (char &c : text) {
        if (c == '\n' || c == '\r')
            c = ' ';
    }
    return text;
}

} // namespace

std::string
encodeRep(const RepOutput &out)
{
    std::string p;
    p += "FIRST " + std::to_string(out.firstCallNs) + "\n";
    p += "CYCLES " + exactNum(out.simCycles) + "\n";
    p += "ATTEMPTED " + std::to_string(out.attempted) + "\n";
    p += "FAILED " + std::to_string(out.failed) + "\n";
    p += "DIGEST " + (out.digest.empty() ? "-" : out.digest) + "\n";
    p += "POOLED " + (out.pooledDigest.empty() ? "-" : out.pooledDigest) +
        "\n";
    for (double ms : out.cellMs)
        p += "CELL " + exactNum(ms) + "\n";
    for (const std::string &f : out.failures)
        p += "FAIL " + oneLine(f) + "\n";
    for (const auto &[name, v] : out.values)
        p += "VALUE " + name + " " + exactNum(v) + "\n";
    for (const Span &s : out.spans) {
        p += "SPAN " + std::to_string(s.startNs) + " " +
            std::to_string(s.endNs) + " " + std::to_string(s.parent) + " " +
            s.layer + " " + oneLine(s.name) + "\n";
    }
    p += "END\n";
    return p;
}

bool
decodeRep(const std::string &payload, RepOutput &out)
{
    const std::string end = "END\n";
    if (payload.size() < end.size() ||
        payload.compare(payload.size() - end.size(), end.size(), end) != 0)
        return false;
    RepOutput r;
    std::istringstream lines(payload);
    std::string line;
    unsigned required = 0;
    bool ended = false;
    while (std::getline(lines, line)) {
        if (ended)
            return false; // bytes after END
        std::istringstream in(line);
        std::string tag;
        in >> tag;
        auto rest = [&]() {
            std::string text;
            std::getline(in >> std::ws, text);
            return text;
        };
        if (tag == "END") {
            ended = true;
        } else if (tag == "FIRST" && (in >> r.firstCallNs)) {
            required |= 1;
        } else if (tag == "CYCLES" && (in >> r.simCycles)) {
            required |= 2;
        } else if (tag == "ATTEMPTED" && (in >> r.attempted)) {
            required |= 4;
        } else if (tag == "FAILED" && (in >> r.failed)) {
            required |= 8;
        } else if (tag == "DIGEST" && (in >> r.digest)) {
            required |= 16;
            if (r.digest == "-")
                r.digest.clear();
        } else if (tag == "POOLED" && (in >> r.pooledDigest)) {
            required |= 32;
            if (r.pooledDigest == "-")
                r.pooledDigest.clear();
        } else if (tag == "CELL") {
            double ms = 0.0;
            if (!(in >> ms))
                return false;
            r.cellMs.push_back(ms);
        } else if (tag == "FAIL") {
            r.failures.push_back(rest());
        } else if (tag == "VALUE") {
            std::string name;
            double v = 0.0;
            if (!(in >> name >> v))
                return false;
            r.values.emplace_back(name, v);
        } else if (tag == "SPAN") {
            Span s;
            if (!(in >> s.startNs >> s.endNs >> s.parent >> s.layer))
                return false;
            s.name = rest();
            if (s.name.empty() || s.endNs < s.startNs ||
                s.parent >= static_cast<int>(r.spans.size()) ||
                s.parent < -1)
                return false;
            r.spans.push_back(std::move(s));
        } else {
            return false;
        }
    }
    if (!ended || required != 63)
        return false;
    out = std::move(r);
    return true;
}

} // namespace distill::e2e
