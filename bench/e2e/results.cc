#include "results.hh"

#include <cmath>
#include <cstdio>
#include <cstdlib>

#include "trace_json.hh"

namespace distill::e2e
{

namespace
{

constexpr const char *schemaName = "distill-e2e";
constexpr int schemaVersion = 1;

std::string
quoted(const std::string &s)
{
    std::string out(1, '"');
    out += trace::jsonEscape(s);
    out += '"';
    return out;
}

/** Strict reader over trace_json's syntax scanner. */
class Reader
{
  public:
    explicit Reader(const std::string &text) : text_(text), s_(text) {}

    bool
    fail(const std::string &why)
    {
        if (error_.empty())
            error_ = why;
        return false;
    }

    const std::string &error() const { return error_; }

    bool
    number(double &out)
    {
        s_.skipWs();
        std::size_t start = s_.pos_;
        if (!s_.number())
            return fail("expected a number");
        out = std::strtod(text_.substr(start, s_.pos_ - start).c_str(),
                          nullptr);
        return std::isfinite(out) || fail("number out of range");
    }

    bool
    count(std::uint64_t &out)
    {
        double v = 0.0;
        if (!number(v))
            return false;
        if (v < 0.0 || v > 9007199254740992.0 || v != std::floor(v))
            return fail("expected a non-negative integer");
        out = static_cast<std::uint64_t>(v);
        return true;
    }

    bool
    string(std::string &out)
    {
        return s_.string(out) || fail("expected a string");
    }

    bool
    boolean(bool &out)
    {
        if (s_.literal("true")) {
            out = true;
            return true;
        }
        if (s_.literal("false")) {
            out = false;
            return true;
        }
        return fail("expected true or false");
    }

    /**
     * Parse an object, calling @p member(key) for each member; every
     * name in @p required must appear exactly once.
     */
    template <typename F>
    bool
    object(const std::vector<std::string> &required, F member)
    {
        if (!s_.consume('{'))
            return fail("expected an object");
        std::vector<std::string> seen;
        if (!s_.consume('}')) {
            do {
                std::string key;
                if (!s_.string(key) || !s_.consume(':'))
                    return fail("malformed object member");
                for (const std::string &k : seen) {
                    if (k == key)
                        return fail("duplicate member \"" + key + "\"");
                }
                seen.push_back(key);
                if (!member(key))
                    return fail("bad value for \"" + key + "\"");
            } while (s_.consume(','));
            if (!s_.consume('}'))
                return fail("unterminated object");
        }
        for (const std::string &k : required) {
            bool found = false;
            for (const std::string &s : seen)
                found = found || s == k;
            if (!found)
                return fail("missing member \"" + k + "\"");
        }
        return true;
    }

    template <typename F>
    bool
    array(F element)
    {
        if (!s_.consume('['))
            return fail("expected an array");
        if (s_.consume(']'))
            return true;
        do {
            if (!element())
                return false;
        } while (s_.consume(','));
        return s_.consume(']') || fail("unterminated array");
    }

    bool eof() { return s_.eof(); }

  private:
    const std::string &text_;
    trace::detail::Scanner s_;
    std::string error_;
};

bool
readMetric(Reader &r, MetricResult &m)
{
    return r.object({"name", "unit", "value", "samples"},
                    [&](const std::string &key) {
        if (key == "name")
            return r.string(m.name);
        if (key == "unit")
            return r.string(m.unit);
        if (key == "value")
            return r.number(m.value);
        if (key == "samples") {
            return r.array([&] {
                double v = 0.0;
                if (!r.number(v))
                    return false;
                m.samples.push_back(v);
                return true;
            }) && (!m.samples.empty() || r.fail("empty samples"));
        }
        return r.fail("unknown metric member \"" + key + "\"");
    });
}

bool
readWorkload(Reader &r, WorkloadResult &w)
{
    return r.object({"name", "attempted", "failed", "sim_digest", "metrics"},
                    [&](const std::string &key) {
        if (key == "name")
            return r.string(w.name);
        if (key == "attempted")
            return r.count(w.attempted);
        if (key == "failed")
            return r.count(w.failed);
        if (key == "sim_digest")
            return r.string(w.simDigest);
        if (key == "metrics") {
            return r.array([&] {
                MetricResult m;
                if (!readMetric(r, m))
                    return false;
                if (w.find(m.name) != nullptr)
                    return r.fail("duplicate metric " + m.name);
                w.metrics.push_back(std::move(m));
                return true;
            });
        }
        return r.fail("unknown workload member \"" + key + "\"");
    });
}

} // namespace

std::string
exactNum(double v)
{
    char buf[40];
    std::snprintf(buf, sizeof buf, "%.17g", v);
    return buf;
}

const MetricResult *
WorkloadResult::find(const std::string &metric) const
{
    for (const MetricResult &m : metrics) {
        if (m.name == metric)
            return &m;
    }
    return nullptr;
}

const WorkloadResult *
Results::find(const std::string &workload) const
{
    for (const WorkloadResult &w : workloads) {
        if (w.name == workload)
            return &w;
    }
    return nullptr;
}

std::string
writeResults(const Results &results)
{
    std::string out = "{\"schema\": " + quoted(schemaName) +
        ", \"version\": " + std::to_string(schemaVersion) +
        ", \"seed\": " + std::to_string(results.seed) +
        ", \"trace\": " + (results.trace ? "true" : "false") +
        ",\n \"workloads\": [";
    for (std::size_t i = 0; i < results.workloads.size(); ++i) {
        const WorkloadResult &w = results.workloads[i];
        out += i == 0 ? "\n" : ",\n";
        out += "  {\"name\": " + quoted(w.name) +
            ", \"attempted\": " + std::to_string(w.attempted) +
            ", \"failed\": " + std::to_string(w.failed) +
            ", \"sim_digest\": " + quoted(w.simDigest) + ", \"metrics\": [";
        for (std::size_t j = 0; j < w.metrics.size(); ++j) {
            const MetricResult &m = w.metrics[j];
            out += j == 0 ? "\n" : ",\n";
            out += "    {\"name\": " + quoted(m.name) +
                ", \"unit\": " + quoted(m.unit) +
                ", \"value\": " + exactNum(m.value) + ", \"samples\": [";
            for (std::size_t k = 0; k < m.samples.size(); ++k)
                out += (k == 0 ? "" : ", ") + exactNum(m.samples[k]);
            out += "]}";
        }
        out += "]}";
    }
    out += "]}\n";
    return out;
}

bool
parseResults(const std::string &text, Results *out, std::string *error)
{
    Reader r(text);
    Results res;
    bool ok = r.object({"schema", "version", "seed", "trace", "workloads"},
                       [&](const std::string &key) {
        if (key == "schema") {
            std::string name;
            return r.string(name) &&
                (name == schemaName || r.fail("unexpected schema " + name));
        }
        if (key == "version") {
            std::uint64_t v = 0;
            return r.count(v) &&
                (v == schemaVersion ||
                 r.fail("unsupported version " + std::to_string(v)));
        }
        if (key == "seed")
            return r.count(res.seed);
        if (key == "trace")
            return r.boolean(res.trace);
        if (key == "workloads") {
            return r.array([&] {
                WorkloadResult w;
                if (!readWorkload(r, w))
                    return false;
                if (res.find(w.name) != nullptr)
                    return r.fail("duplicate workload " + w.name);
                res.workloads.push_back(std::move(w));
                return true;
            });
        }
        return r.fail("unknown member \"" + key + "\"");
    });
    if (ok && !r.eof())
        ok = r.fail("trailing garbage after document");
    if (!ok) {
        if (error != nullptr)
            *error = r.error();
        return false;
    }
    if (out != nullptr)
        *out = std::move(res);
    return true;
}

} // namespace distill::e2e
