/**
 * @file
 * Shared pieces of the end-to-end benchmark: clocks, the repetition
 * loop, order statistics, the sampled callback timer, the span ledger
 * behind the "where the time went" table, and the result a run
 * prints. See README.md for the metric definitions.
 */

#ifndef PERFBENCH_BENCH_HPP
#define PERFBENCH_BENCH_HPP

#include <chrono>
#include <cstddef>
#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <utility>
#include <vector>

namespace perfbench {

/** Command line of one benchmark run. */
struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    /** Writable directory inside the checkout for temporary files. */
    std::string tmp_dir = ".";
    /** Pool threads: nproc. */
    unsigned threads = 1;
};

/** Monotonic wall clock, seconds. */
double wallNow();
/** CPU time of the whole process (all threads), seconds. */
double cpuNow();
/** Peak resident set size of the process, MB. */
double peakRssMb();
/** Monotonic clock in nanoseconds (span and sample timing). */
inline std::int64_t
nowNs()
{
    return std::chrono::duration_cast<std::chrono::nanoseconds>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}
/** Mean cost of one nowNs() read pair, ns (calibrated once). */
double clockOverheadNs();

double median(std::vector<double> values);

/** A latency tail: the highest percentile with ten samples beyond it. */
struct Tail
{
    double value = 0.0;      ///< The sample at that percentile.
    double percentile = 0.0; ///< Highest with >= 10 samples beyond it.
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> values);

/** One timed repetition of a workload's fixed-size batch. */
struct Rep
{
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double sim_s = 0.0; ///< Simulated device-seconds of the batch.
    double ops = 0.0;   ///< Operations in the batch (README.md).
};

/**
 * Counts every call of a hot callback and times a fixed 1-in-kEvery
 * sample of them; the estimated total subtracts the clock's own cost.
 * Not thread-safe: one instance per lane.
 */
class SampledTimer
{
  public:
    static constexpr std::uint64_t kEvery = 16;

    template <typename Fn>
    auto operator()(Fn &&fn)
    {
        if (++calls_ % kEvery != 0)
            return fn();
        const std::int64_t t0 = nowNs();
        struct Stop
        {
            SampledTimer *self;
            std::int64_t t0;
            ~Stop()
            {
                self->timed_ns_ += double(nowNs() - t0);
                ++self->timed_;
            }
        } stop{this, t0};
        return fn();
    }

    std::uint64_t calls() const { return calls_; }
    /** Estimated total ns spent inside the callback. */
    double estimatedNs() const;

    void add(const SampledTimer &other)
    {
        calls_ += other.calls_;
        timed_ += other.timed_;
        timed_ns_ += other.timed_ns_;
    }

  private:
    std::uint64_t calls_ = 0;
    std::uint64_t timed_ = 0;
    double timed_ns_ = 0.0;
};

/**
 * Named span totals of one traced repetition. `parent` names the span
 * a child is nested in; self time is a span's total minus its
 * children's. Top-level spans (no parent) are what trace.coverage
 * compares against the repetition's work time.
 */
class Ledger
{
  public:
    struct Span
    {
        std::string parent;
        double ns = 0.0;
        std::uint64_t calls = 0;
    };

    void add(const std::string &name, double ns, std::uint64_t calls = 1,
             const std::string &parent = "");
    /** Thread-safe merge of a per-item ledger. */
    void merge(const Ledger &other);

    double ns(const std::string &name) const;
    double selfNs(const std::string &name) const;
    double topLevelNs() const;

    /** The "where the time went" table, shares of @p work_ns. */
    void print(double work_ns) const;

  private:
    mutable std::mutex mutex_;
    std::map<std::string, Span> spans_;
};

/** Scope guard adding its lifetime to a top-level ledger span. */
class SpanTimer
{
  public:
    SpanTimer(Ledger &ledger, std::string name)
        : ledger_(ledger), name_(std::move(name)), t0_(nowNs())
    {}
    ~SpanTimer() { ledger_.add(name_, double(nowNs() - t0_)); }
    SpanTimer(const SpanTimer &) = delete;
    SpanTimer &operator=(const SpanTimer &) = delete;

  private:
    Ledger &ledger_;
    std::string name_;
    std::int64_t t0_;
};

/** What one run prints as its last line. */
struct Result
{
    bool correct = true;
    std::uint64_t attempted = 0;
    std::uint64_t failed = 0;
    std::vector<std::pair<std::string, std::pair<double, std::string>>>
        metrics;

    void metric(const std::string &name, double value,
                const std::string &unit);
    /** Record a self-check; a failing one makes the run incorrect. */
    void check(bool ok, const std::string &what);
    std::string json() const;
};

/**
 * Time @p setup @p times times and return the median wall seconds;
 * the last call's products are what the run measures.
 */
template <typename Fn>
double
medianSetup(unsigned times, Fn &&setup)
{
    std::vector<double> walls;
    for (unsigned i = 0; i < times; ++i) {
        const double t0 = wallNow();
        setup();
        walls.push_back(wallNow() - t0);
    }
    return median(walls);
}

/**
 * Repeat @p body until @p seconds of wall time have passed and at
 * least @p min_reps repetitions ran. @p body returns the repetition's
 * simulated seconds and op count; clocks are read around it.
 */
template <typename Fn>
std::vector<Rep>
repeatFor(double seconds, std::size_t min_reps, Fn &&body)
{
    std::vector<Rep> reps;
    const double start = wallNow();
    while (reps.size() < min_reps || wallNow() - start < seconds) {
        Rep rep;
        const double w0 = wallNow();
        const double c0 = cpuNow();
        const std::pair<double, double> work = body();
        rep.cpu_s = cpuNow() - c0;
        rep.wall_s = wallNow() - w0;
        rep.sim_s = work.first;
        rep.ops = work.second;
        reps.push_back(rep);
    }
    return reps;
}

/**
 * The end-to-end metrics every workload reports from its untraced
 * repetitions, plus the run's peak RSS. Repetition i ran population
 * i mod @p populations; rates are summed work over summed time with
 * each population counted once at the mean of its repetitions.
 * @p op_ms holds each repetition's op latencies. The workload adds
 * its simulated outcomes.
 */
void addThroughputMetrics(Result &result, const std::vector<Rep> &reps,
                          std::size_t populations, double setup_s,
                          const std::vector<std::vector<double>> &op_ms);

/** Human-readable run summary lines (stdout, before the JSON). */
void printReps(const char *workload, const std::vector<Rep> &reps);

/** Names of every per-layer metric, in BENCHMARK.json order. */
const std::vector<std::pair<std::string, std::string>> &perLayerMetrics();

/**
 * Per-layer values of one traced run; every name in perLayerMetrics()
 * is emitted, 0 where the workload does not exercise the layer.
 */
void emitPerLayer(Result &result,
                  const std::map<std::string, double> &values);

} // namespace perfbench

#endif // PERFBENCH_BENCH_HPP
