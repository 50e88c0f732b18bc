#include "spans.hh"

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>

#include "trace_json.hh"

namespace distill::e2e
{

std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

SpanLog::Scope::Scope(SpanLog &log, std::string name, std::string layer)
    : log_(log), startNs_(nowNs())
{
    if (!log_.enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.startNs = startNs_;
    span.parent = log_.open_.empty() ? -1 : log_.open_.back();
    index_ = static_cast<int>(log_.spans_.size());
    log_.spans_.push_back(std::move(span));
    log_.open_.push_back(index_);
}

SpanLog::Scope::~Scope()
{
    if (index_ < 0)
        return;
    log_.spans_[static_cast<std::size_t>(index_)].endNs = nowNs();
    log_.open_.pop_back();
}

void
SpanLog::record(std::string name, std::string layer, std::int64_t startNs,
                std::int64_t endNs)
{
    if (!enabled_)
        return;
    Span span;
    span.name = std::move(name);
    span.layer = std::move(layer);
    span.startNs = startNs;
    span.endNs = endNs;
    span.parent = open_.empty() ? -1 : open_.back();
    spans_.push_back(std::move(span));
}

double
SpanLog::Scope::elapsedSec() const
{
    return static_cast<double>(nowNs() - startNs_) * 1e-9;
}

std::vector<double>
selfTimes(const std::vector<Span> &spans)
{
    std::vector<std::vector<std::pair<std::int64_t, std::int64_t>>> kids(
        spans.size());
    for (const Span &s : spans) {
        if (s.parent >= 0 &&
            static_cast<std::size_t>(s.parent) < spans.size())
            kids[static_cast<std::size_t>(s.parent)].emplace_back(s.startNs,
                                                                  s.endNs);
    }
    std::vector<double> self(spans.size(), 0.0);
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto &iv = kids[i];
        std::sort(iv.begin(), iv.end());
        std::int64_t covered = 0;
        std::int64_t reach = s.startNs;
        for (auto [lo, hi] : iv) {
            lo = std::max(lo, reach);
            hi = std::min(hi, s.endNs);
            if (hi > lo) {
                covered += hi - lo;
                reach = hi;
            }
        }
        self[i] = static_cast<double>(s.endNs - s.startNs - covered) * 1e-9;
    }
    return self;
}

std::string
chromeTrace(const std::vector<Span> &spans)
{
    std::int64_t origin = 0;
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (i == 0 || spans[i].startNs < origin)
            origin = spans[i].startNs;
    }
    std::vector<std::string> workloads;
    std::string out = "{\"displayTimeUnit\":\"ms\",\"traceEvents\":[\n";
    for (std::size_t i = 0; i < spans.size(); ++i) {
        const Span &s = spans[i];
        auto it = std::find(workloads.begin(), workloads.end(), s.workload);
        if (it == workloads.end())
            it = workloads.insert(workloads.end(), s.workload);
        int pid = static_cast<int>(it - workloads.begin()) + 1;
        char times[96];
        std::snprintf(times, sizeof times, "\"ts\":%.3f,\"dur\":%.3f",
                      static_cast<double>(s.startNs - origin) * 1e-3,
                      static_cast<double>(s.endNs - s.startNs) * 1e-3);
        out += "{\"name\":\"" + trace::jsonEscape(s.name) + "\",\"cat\":\"" +
            trace::jsonEscape(s.layer) + "\",\"ph\":\"X\"," + times +
            ",\"pid\":" + std::to_string(pid) +
            ",\"tid\":" + std::to_string(s.rep) + ",\"args\":{\"parent\":" +
            std::to_string(s.parent) + ",\"workload\":\"" +
            trace::jsonEscape(s.workload) + "\",\"rep\":" +
            std::to_string(s.rep) + "}}";
        out += i + 1 < spans.size() ? ",\n" : "\n";
    }
    for (std::size_t w = 0; w < workloads.size(); ++w) {
        out += spans.empty() ? "" : ",";
        out += "{\"name\":\"process_name\",\"ph\":\"M\",\"ts\":0,\"pid\":" +
            std::to_string(w + 1) + ",\"tid\":0,\"args\":{\"name\":\"" +
            trace::jsonEscape(workloads[w]) + "\"}}\n";
    }
    out += "]}\n";
    return out;
}

} // namespace distill::e2e
