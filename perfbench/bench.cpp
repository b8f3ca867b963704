#include "bench.hpp"

#include <sys/resource.h>

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <ctime>

namespace perfbench {

double
wallNow()
{
    return double(nowNs()) * 1e-9;
}

double
cpuNow()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return double(ts.tv_sec) + double(ts.tv_nsec) * 1e-9;
}

double
peakRssMb()
{
    rusage usage{};
    getrusage(RUSAGE_SELF, &usage);
    return double(usage.ru_maxrss) / 1024.0; // ru_maxrss is in KiB.
}

double
clockOverheadNs()
{
    static const double overhead = [] {
        std::vector<double> rounds;
        for (int r = 0; r < 9; ++r) {
            constexpr int kPairs = 20000;
            double total = 0.0;
            for (int i = 0; i < kPairs; ++i) {
                const std::int64_t t0 = nowNs();
                total += double(nowNs() - t0);
            }
            rounds.push_back(total / kPairs);
        }
        return median(rounds);
    }();
    return overhead;
}

double
median(std::vector<double> values)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    return n % 2 == 1 ? values[n / 2]
                      : 0.5 * (values[n / 2 - 1] + values[n / 2]);
}

Tail
tailOf(std::vector<double> values)
{
    Tail tail;
    tail.samples = values.size();
    if (values.empty())
        return tail;
    std::sort(values.begin(), values.end());
    const std::size_t n = values.size();
    // The sample with exactly ten above it; with fewer than eleven
    // samples no percentile qualifies and the maximum stands in.
    const std::size_t index = n > 10 ? n - 11 : n - 1;
    tail.value = values[index];
    tail.percentile = 100.0 * double(index + 1) / double(n);
    return tail;
}

double
SampledTimer::estimatedNs() const
{
    if (timed_ == 0)
        return 0.0;
    const double per_call =
        std::max(0.0, timed_ns_ / double(timed_) - clockOverheadNs());
    return per_call * double(calls_);
}

void
Ledger::add(const std::string &name, double ns, std::uint64_t calls,
            const std::string &parent)
{
    std::lock_guard<std::mutex> lock(mutex_);
    Span &span = spans_[name];
    span.parent = parent;
    span.ns += ns;
    span.calls += calls;
}

void
Ledger::merge(const Ledger &other)
{
    std::map<std::string, Span> copy;
    {
        std::lock_guard<std::mutex> lock(other.mutex_);
        copy = other.spans_;
    }
    for (const auto &[name, span] : copy)
        add(name, span.ns, span.calls, span.parent);
}

double
Ledger::ns(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = spans_.find(name);
    return it == spans_.end() ? 0.0 : it->second.ns;
}

double
Ledger::selfNs(const std::string &name) const
{
    std::lock_guard<std::mutex> lock(mutex_);
    const auto it = spans_.find(name);
    if (it == spans_.end())
        return 0.0;
    double self = it->second.ns;
    for (const auto &[child, span] : spans_)
        if (span.parent == name)
            self -= span.ns;
    return self;
}

double
Ledger::topLevelNs() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    double total = 0.0;
    for (const auto &[name, span] : spans_)
        if (span.parent.empty())
            total += span.ns;
    return total;
}

void
Ledger::print(double work_ns) const
{
    std::map<std::string, Span> copy;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        copy = spans_;
    }
    std::printf("where the time went (self time; share of %.3f s of "
                "traced work):\n",
                work_ns * 1e-9);
    std::printf("  %-34s %12s %8s %14s\n", "layer", "self ms", "share",
                "calls");
    // Depth-first so children print under their parent.
    const auto printLevel = [&](const auto &self, const std::string &parent,
                                int depth) -> void {
        for (const auto &[name, span] : copy) {
            if (span.parent != parent)
                continue;
            const double own = selfNs(name);
            std::printf("  %*s%-*s %12.3f %7.2f%% %14llu\n", 2 * depth, "",
                        34 - 2 * depth, name.c_str(), own * 1e-6,
                        work_ns > 0.0 ? 100.0 * own / work_ns : 0.0,
                        static_cast<unsigned long long>(span.calls));
            self(self, name, depth + 1);
        }
    };
    printLevel(printLevel, "", 0);
}

void
Result::metric(const std::string &name, double value,
               const std::string &unit)
{
    if (!std::isfinite(value)) {
        check(false, "metric " + name + " is not finite");
        value = 0.0;
    }
    metrics.push_back({name, {value, unit}});
}

void
Result::check(bool ok, const std::string &what)
{
    std::printf("check %-4s %s\n", ok ? "ok" : "FAIL", what.c_str());
    if (!ok)
        correct = false;
}

std::string
Result::json() const
{
    std::string out = "{\"correct\": ";
    out += correct ? "true" : "false";
    out += ", \"attempted\": " + std::to_string(attempted);
    out += ", \"failed\": " + std::to_string(failed);
    out += ", \"metrics\": {";
    for (std::size_t i = 0; i < metrics.size(); ++i) {
        char value[40];
        std::snprintf(value, sizeof(value), "%.17g",
                      metrics[i].second.first);
        out += (i == 0 ? "\"" : ", \"") + metrics[i].first +
               "\": {\"value\": " + value + ", \"unit\": \"" +
               metrics[i].second.second + "\"}";
    }
    out += "}}";
    return out;
}

void
addThroughputMetrics(Result &result, const std::vector<Rep> &reps,
                     std::size_t populations, double setup_s,
                     const std::vector<std::vector<double>> &op_ms)
{
    // Each population counts once, at the mean of its repetitions, so
    // the run's rate does not depend on which populations ran twice.
    std::vector<Rep> mean(populations);
    std::vector<std::size_t> visits(populations, 0);
    for (std::size_t i = 0; i < reps.size(); ++i) {
        Rep &m = mean[i % populations];
        const double n = double(++visits[i % populations]);
        m.wall_s += (reps[i].wall_s - m.wall_s) / n;
        m.cpu_s += (reps[i].cpu_s - m.cpu_s) / n;
        m.sim_s = reps[i].sim_s;
        m.ops = reps[i].ops;
    }
    Rep total;
    for (const Rep &m : mean) {
        total.wall_s += m.wall_s;
        total.cpu_s += m.cpu_s;
        total.sim_s += m.sim_s;
        total.ops += m.ops;
    }
    // The tail is taken within each repetition, where it sits among the
    // workload's slow ops rather than among scheduler hiccups, and the
    // run reports its mean over repetitions: the ops near a repetition's
    // tail differ from population to population, and the mean smooths
    // the jumps between them that a median keeps.
    std::vector<double> all;
    double tail_sum = 0.0;
    for (const std::vector<double> &rep : op_ms) {
        all.insert(all.end(), rep.begin(), rep.end());
        tail_sum += tailOf(rep).value;
    }
    const double mean_tail = tail_sum / double(op_ms.size());
    const Tail rep_tail = tailOf(op_ms.empty() ? std::vector<double>{}
                                               : op_ms.front());
    const Tail run_tail = tailOf(all);
    std::printf("op latency: %zu samples, p50 %.4f ms; per repetition "
                "(%zu samples) p%.2f, mean %.4f ms; whole run p%.3f "
                "%.4f ms\n",
                all.size(), median(all), rep_tail.samples,
                rep_tail.percentile, mean_tail, run_tail.percentile,
                run_tail.value);
    result.metric("setup_s", setup_s, "s");
    result.metric("sim_s_per_cpu_s", total.sim_s / total.cpu_s, "s/s");
    result.metric("sim_s_per_wall_s", total.sim_s / total.wall_s, "s/s");
    result.metric("ops_per_cpu_s", total.ops / total.cpu_s, "1/s");
    result.metric("ops_per_wall_s", total.ops / total.wall_s, "1/s");
    result.metric("op_ms_p50", median(all), "ms");
    result.metric("op_ms_tail", mean_tail, "ms");
    result.metric("peak_rss_mb", peakRssMb(), "MB");
}

void
printReps(const char *workload, const std::vector<Rep> &reps)
{
    double wall = 0.0, cpu = 0.0, sim = 0.0, ops = 0.0;
    for (const Rep &rep : reps) {
        wall += rep.wall_s;
        cpu += rep.cpu_s;
        sim += rep.sim_s;
        ops += rep.ops;
    }
    for (const Rep &rep : reps)
        std::printf("  repetition: %.4f s wall, %.4f s CPU\n", rep.wall_s,
                    rep.cpu_s);
    std::printf("%s: %zu repetitions, %.3f s wall, %.3f s CPU, %.0f "
                "simulated device-s, %.0f ops\n",
                workload, reps.size(), wall, cpu, sim, ops);
}

const std::vector<std::pair<std::string, std::string>> &
perLayerMetrics()
{
    static const std::vector<std::pair<std::string, std::string>> names = {
        {"batch.engine.self_ns_per_sim_s", "ns/s"},
        {"batch.engine.macro_commits_per_sim_s", "1/s"},
        {"batch.engine.peels_per_device", "count"},
        {"batch.trial_driver.calls_per_sim_s", "1/s"},
        {"batch.trial_driver.self_share", "ratio"},
        {"env.field.calls_per_sim_s", "1/s"},
        {"env.field.self_share", "ratio"},
        {"env.trace.decode_ns", "ns"},
        {"fleet.sample.ns_per_device", "ns"},
        {"fleet.export.ns", "ns"},
        {"fleet.export.bytes", "B"},
        {"fleet.shard.busy_max_over_median", "ratio"},
        {"telemetry.events_per_sim_s", "1/s"},
        {"telemetry.dropped_share", "ratio"},
        {"telemetry.export_ns", "ns"},
        {"sched.policy_init.ns", "ns"},
        {"harness.bakeoff.cell_ms.batch_exact", "ms"},
        {"harness.bakeoff.cell_ms.scalar", "ms"},
        {"harness.ground_truth.ns_per_search", "ns"},
        {"harness.ground_truth.trials_per_search", "count"},
        {"harness.vsafe_cache.hit_ratio", "ratio"},
        {"core.vsafe_pg.ns_per_call", "ns"},
        {"harness.profiling.isr_ns_per_call", "ns"},
        {"harness.profiling.uarch_ns_per_call", "ns"},
        {"harness.profiling.failures", "count"},
        {"harness.baselines.ns_per_call", "ns"},
        {"util.pool.utilisation", "ratio"},
        {"trace.overhead", "ratio"},
        {"trace.coverage", "ratio"},
    };
    return names;
}

void
emitPerLayer(Result &result, const std::map<std::string, double> &values)
{
    for (const auto &entry : values) {
        const std::string &key = entry.first;
        bool known = false;
        for (const auto &[name, unit] : perLayerMetrics())
            known = known || name == key;
        if (!known)
            result.check(false, "per-layer metric " + key +
                                    " is declared in BENCHMARK.json");
    }
    for (const auto &[name, unit] : perLayerMetrics()) {
        const auto it = values.find(name);
        result.metric(name, it == values.end() ? 0.0 : it->second, unit);
    }
}

} // namespace perfbench
