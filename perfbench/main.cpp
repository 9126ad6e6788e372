/**
 * @file
 * The repo benchmark's entry point.
 *
 *   perfbench --workload open_loop_slo|fork_fanout|paper_suite
 *             --seconds S --trace 0|1 [--seed N]
 *             [--threads N] [--root DIR] [--out-dir DIR]
 *             [--commit SHA] [--perturb] [--max-iters N]
 *
 * --seed defaults to the workload's committed seed, the only one its
 * goldens pin. --perturb and --max-iters exist for run.py's self-test.
 * Runs iterations of one workload until --seconds have
 * passed (at least three; four when tracing). With --trace 0 it reports
 * the end-to-end metrics over all iterations; with --trace 1 every other
 * iteration is traced, the per-layer metrics come from the traced
 * iterations' spans and the spans are written to a Chrome trace file in
 * --out-dir. The last stdout line is one JSON object: correct, attempted,
 * failed and metrics. See perfbench/README.md.
 */

#include "workloads.hpp"

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <functional>
#include <set>

#include <sched.h>

namespace perfbench {

void
fatal(const std::string &why)
{
    std::fprintf(stderr, "perfbench: %s\n", why.c_str());
    std::exit(2);
}

namespace {

unsigned
nproc()
{
    cpu_set_t set;
    CPU_ZERO(&set);
    if (sched_getaffinity(0, sizeof set, &set) == 0)
        return static_cast<unsigned>(std::max(1, CPU_COUNT(&set)));
    return 1;
}

[[noreturn]] void
usage(const std::string &why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload open_loop_slo|fork_fanout|"
                 "paper_suite\n"
                 "                 --seconds S --trace 0|1 [--seed N] "
                 "[--threads N]\n"
                 "                 [--root DIR] [--out-dir DIR] "
                 "[--commit SHA] [--perturb] [--max-iters N]\n",
                 why.c_str());
    std::exit(2);
}

std::uint64_t
parseUnsigned(const std::string &flag, const std::string &value)
{
    if (value.empty() || value.size() > 19 ||
        value.find_first_not_of("0123456789") != std::string::npos)
        usage(flag + " needs a non-negative integer, got '" + value + "'");
    return std::stoull(value);
}

struct Args
{
    Options opts;
    std::string out_dir = ".bench_build/perfbench/traces";
    std::string commit = "unknown";
};

Args
parseArgs(int argc, char **argv)
{
    Args a;
    bool have_seed = false;
    bool have_seconds = false;
    bool have_trace = false;
    bool have_threads = false;
    const unsigned cores = nproc();
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (flag == "--perturb") {
            a.opts.perturb = true;
            continue;
        }
        if (i + 1 >= argc)
            usage("missing value for " + flag);
        const std::string value = argv[++i];
        if (flag == "--workload") {
            a.opts.workload = value;
        } else if (flag == "--seed") {
            a.opts.seed = parseUnsigned(flag, value);
            have_seed = true;
        } else if (flag == "--seconds") {
            char *end = nullptr;
            a.opts.seconds = std::strtod(value.c_str(), &end);
            if (end == value.c_str() || *end != '\0' ||
                !(a.opts.seconds > 0.0) || a.opts.seconds > 3600.0)
                usage("--seconds needs a number in (0, 3600]");
            have_seconds = true;
        } else if (flag == "--trace") {
            if (value != "0" && value != "1")
                usage("--trace needs 0 or 1");
            a.opts.trace = value == "1";
            have_trace = true;
        } else if (flag == "--threads") {
            a.opts.threads = static_cast<unsigned>(
                std::min<std::uint64_t>(parseUnsigned(flag, value), 1u << 20));
            have_threads = true;
        } else if (flag == "--root") {
            a.opts.root = value;
        } else if (flag == "--out-dir") {
            a.out_dir = value;
        } else if (flag == "--commit") {
            a.commit = value;
        } else if (flag == "--max-iters") {
            a.opts.max_iters = static_cast<int>(
                std::min<std::uint64_t>(parseUnsigned(flag, value), 1000));
        } else {
            usage("unknown flag " + flag);
        }
    }
    if (a.opts.workload != "open_loop_slo" &&
        a.opts.workload != "fork_fanout" && a.opts.workload != "paper_suite")
        usage("--workload must be open_loop_slo, fork_fanout or paper_suite");
    if (!have_seconds || !have_trace)
        usage("--seconds and --trace are required");
    if (!have_seed)
        a.opts.seed = a.opts.workload == "open_loop_slo" ? kOpenLoopSeed
                      : a.opts.workload == "fork_fanout" ? kForkSeed
                                                         : 0;
    if (!have_threads)
        a.opts.threads = std::min(4u, cores);
    if (a.opts.threads == 0 || a.opts.threads > cores)
        usage("--threads must be between 1 and nproc (" +
              std::to_string(cores) + ")");
    return a;
}

/** One iteration's end-to-end measurements. */
struct Iteration
{
    bool traced = false;
    double setup_s = 0.0;
    double wall_s = 0.0;
    double cpu_s = 0.0;
    double events = 0.0;
};

/** Memory of the first iteration, as a process running it once sees it. */
struct Memory
{
    double peak_rss_mb = 0.0;
    double setup_rss_mb = 0.0;      //!< RSS growth over set-up
    double run_rss_growth_mb = 0.0; //!< peak RSS minus RSS after set-up
};

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

/** Per-layer metrics derived from the traced iterations' spans. */
class SpanView
{
  public:
    SpanView(const Tracer &t, const std::vector<Iteration> &iters)
        : spans_(t.spans())
    {
        for (int k = 0; k < static_cast<int>(iters.size()); ++k) {
            if (iters[static_cast<std::size_t>(k)].traced)
                traced_.push_back(k);
        }
    }

    /** Median over traced iterations of a per-iteration reduction. */
    double perIter(const std::function<double(int)> &fn) const
    {
        std::vector<double> v;
        for (const int k : traced_)
            v.push_back(fn(k));
        return median(v);
    }

    /** Per-iteration sum of f over spans named @p name (and @p detail). */
    double sum(int iter, const std::string &name,
               const std::function<double(const SpanRec &)> &f,
               const char *detail = nullptr) const
    {
        double total = 0.0;
        for (const SpanRec &s : spans_) {
            if (s.iter == iter && s.name == name &&
                (detail == nullptr || s.detail == detail))
                total += f(s);
        }
        return total;
    }

    double seconds(const std::string &name,
                   const char *detail = nullptr) const
    {
        return perIter(
            [&](int k) { return sum(k, name, wall, detail); });
    }

    double args(const std::string &name) const
    {
        return perIter([&](int k) {
            return sum(k, name, [](const SpanRec &s) {
                return static_cast<double>(s.arg);
            });
        });
    }

    double count(const std::string &name) const
    {
        return perIter([&](int k) {
            return sum(k, name, [](const SpanRec &) { return 1.0; });
        });
    }

    std::vector<double> durationsMs(const std::string &name) const
    {
        std::vector<double> v;
        for (const SpanRec &s : spans_) {
            if (s.iter >= 0 && s.name == name)
                v.push_back(wall(s) * 1e3);
        }
        return v;
    }

    /** 1 - CPU / (workers x wall) over the spans @p keep selects. */
    double idleFrac(const std::function<bool(const SpanRec &)> &keep,
                    unsigned workers) const
    {
        double cpu = 0.0;
        double wall_s = 0.0;
        for (const SpanRec &s : spans_) {
            if (s.iter >= 0 && keep(s)) {
                cpu += s.c1 - s.c0;
                wall_s += wall(s);
            }
        }
        return wall_s > 0.0 ? 1.0 - cpu / (workers * wall_s) : 0.0;
    }

    /** Share of the measured phase its direct child spans cover. */
    double coverage() const
    {
        std::set<int> roots;
        double root_s = 0.0;
        for (std::size_t i = 0; i < spans_.size(); ++i) {
            if (spans_[i].iter >= 0 && spans_[i].name == "bench.measure") {
                roots.insert(static_cast<int>(i));
                root_s += wall(spans_[i]);
            }
        }
        double child_s = 0.0;
        for (const SpanRec &s : spans_) {
            if (roots.count(s.parent) != 0)
                child_s += wall(s);
        }
        return root_s > 0.0 ? child_s / root_s : 0.0;
    }

    const std::vector<int> &traced() const { return traced_; }

    static double wall(const SpanRec &s) { return s.t1 - s.t0; }

  private:
    const std::vector<SpanRec> &spans_;
    std::vector<int> traced_;
};

double
ratio(double num, double den, double scale = 1.0)
{
    return den > 0.0 ? num / den * scale : 0.0;
}

void
tailMetrics(std::vector<Metric> &out, const std::string &prefix,
            const std::vector<double> &samples_ms)
{
    const Tail t = tailOf(samples_ms);
    out.push_back({prefix + "_ms_p50", t.p50, "ms"});
    out.push_back({prefix + "_ms_tail", t.tail, "ms"});
    out.push_back({prefix + "_tail_pct", t.tail_pct, "%"});
    out.push_back({prefix + "_samples", static_cast<double>(t.samples),
                   "count"});
}

std::vector<Metric>
layerMetrics(const Options &opts, const std::vector<Iteration> &iters,
             const Counts &counts, const Memory &mem)
{
    const SpanView v(tracer(), iters);
    std::vector<Metric> m;
    const auto add = [&](const std::string &name, double value,
                         const char *unit) {
        m.push_back({name, value, unit});
    };
    const auto exact = [&](const std::string &name) {
        const auto it = counts.find(name);
        add(name, it == counts.end() ? 0.0 : it->second, "count");
    };

    const double generate_s = v.seconds("workload.generate");
    const double arrivals = v.args("workload.generate");
    add("workload.generate_s", generate_s, "s");
    add("workload.arrivals", arrivals, "count");
    add("workload.ns_per_arrival", ratio(generate_s, arrivals, 1e9), "ns");
    add("mem.setup_rss_mb", mem.setup_rss_mb, "MB");
    add("mem.run_rss_growth_mb", mem.run_rss_growth_mb, "MB");

    add("sharded.advance_window_s", v.seconds("sharded.advance_window"), "s");
    tailMetrics(m, "sharded.window", v.durationsMs("sharded.advance_window"));
    add("sharded.complete_window_s", v.seconds("sharded.complete_window"),
        "s");
    add("sharded.sample_s", v.seconds("sharded.sample"), "s");
    const unsigned workers = std::min<unsigned>(opts.threads, kShards);
    add("sharded.lane_idle_frac",
        v.idleFrac(
            [](const SpanRec &s) {
                return s.name == "sharded.advance_window" ||
                       s.name == "sharded.storm";
            },
            workers),
        "frac");
    add("sharded.prime_s", v.seconds("sharded.prime"), "s");
    const double storm_s = v.seconds("sharded.storm");
    add("sharded.storm_s", storm_s, "s");
    tailMetrics(m, "sharded.storm", v.durationsMs("sharded.storm"));

    const double kernel_ns_per_event = v.perIter([&](int k) {
        double s = 0.0;
        for (const char *name :
             {"sharded.advance_window", "sharded.storm", "campaign.run"})
            s += v.sum(k, name, SpanView::wall);
        return ratio(s, iters[static_cast<std::size_t>(k)].events, 1e9);
    });
    add("sim.host_ns_per_event", kernel_ns_per_event, "ns");
    const double routed = v.args("sharded.storm");
    add("faas.routed", routed, "count");
    add("faas.ns_per_routed_request", ratio(storm_s, routed, 1e9), "ns");

    add("snap.capture_s", v.seconds("snap.capture"), "s");
    const double image_mb = v.args("snap.capture") / (1024.0 * 1024.0);
    add("snap.image_mb", image_mb, "MB");
    add("snap.parse_s", v.seconds("snap.parse"), "s");
    add("snap.restore_s", v.seconds("snap.restore"), "s");
    const std::vector<double> restore_ms = v.durationsMs("snap.restore");
    tailMetrics(m, "snap.restore", restore_ms);
    add("snap.restore_mb_per_s",
        ratio(image_mb, median(restore_ms) / 1e3), "MB/s");
    add("snap.forks", v.count("sharded.storm"), "count");

    add("faas.construct_s", v.seconds("faas.construct"), "s");
    add("campaign.parse_s", median(v.durationsMs("campaign.parse")) / 1e3,
        "s");
    for (const char *file : kPaperFiles) {
        add(std::string("campaign.") + file + ".wall_s",
            v.seconds("campaign.run", file), "s");
    }
    add("exp.harness_idle_frac",
        v.idleFrac(
            [](const SpanRec &s) {
                return s.name == "campaign.run" && isHarnessFile(s.detail);
            },
            opts.threads),
        "frac");

    for (const char *name :
         {"sim.events_processed", "sim.events_scheduled",
          "sim.events_cancelled", "faas.admitted", "faas.served_warm",
          "faas.queued", "faas.rejected", "faas.shed", "faas.instances"})
        exact(name);

    std::vector<double> traced_wall;
    std::vector<double> plain_wall;
    for (const Iteration &it : iters)
        (it.traced ? traced_wall : plain_wall).push_back(it.wall_s);
    add("trace.overhead_frac",
        ratio(median(traced_wall) - median(plain_wall), median(plain_wall)),
        "frac");
    add("trace.coverage_frac", v.coverage(), "frac");
    add("trace.iterations", static_cast<double>(v.traced().size()),
        "count");
    return m;
}

std::vector<Metric>
endToEndMetrics(const std::vector<Iteration> &iters, const Memory &mem)
{
    std::vector<double> wall, setup, rate;
    for (const Iteration &it : iters) {
        if (it.traced)
            continue;
        wall.push_back(it.wall_s);
        setup.push_back(it.setup_s);
        rate.push_back(ratio(it.events, it.wall_s));
    }
    return {
        {"wall_s", median(wall), "s"},
        {"setup_s", median(setup), "s"},
        {"peak_rss_mb", mem.peak_rss_mb, "MB"},
        {"events_per_s", median(rate), "1/s"},
    };
}

/** JSON number with every digit; integers print exactly. */
std::string
jsonNumber(double v)
{
    if (!std::isfinite(v))
        return "0";
    if (v == std::floor(v) && std::fabs(v) < 9e15)
        return fmt("%.0f", v);
    return fmt("%.17g", v);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) >= 0x20)
            out += c;
    }
    return out + "\"";
}

} // namespace

} // namespace perfbench

int
main(int argc, char **argv)
{
    using namespace perfbench;
    const Args args = parseArgs(argc, argv);
    const Options &opts = args.opts;

    double load_1m = 0.0;
    getloadavg(&load_1m, 1);
    const std::string record =
        fmt("{\"workload\":%s,\"seed\":%llu,\"seconds\":%s,\"trace\":%d,"
            "\"nproc\":%u,\"loadavg_1m\":%.2f,\"threads\":%u,\"shards\":%u,"
            "\"commit\":%s}",
            jsonString(opts.workload).c_str(),
            static_cast<unsigned long long>(opts.seed),
            jsonNumber(opts.seconds).c_str(), opts.trace ? 1 : 0, nproc(),
            load_1m, opts.threads, kShards,
            jsonString(args.commit).c_str());
    std::printf("record %s\n", record.c_str());
    std::fflush(stdout);

    std::unique_ptr<Workload> workload =
        opts.workload == "open_loop_slo" ? makeOpenLoopSlo(opts)
        : opts.workload == "fork_fanout" ? makeForkFanout(opts)
                                         : makePaperSuite(opts);

    Checks checks;
    std::vector<Iteration> iters;
    Memory mem;
    const int min_iters = opts.trace ? 4 : 3;
    const double start = nowS();
    for (int k = 0;; ++k) {
        if (opts.max_iters > 0 && k >= opts.max_iters)
            break;
        if (k >= min_iters && nowS() - start >= opts.seconds)
            break;
        Iteration it;
        it.traced = opts.trace && k % 2 == 1;
        tracer().setIteration(it.traced ? k : -1);

        const double rss0 = rssMb();
        double t0 = nowS();
        {
            Span s("bench.setup");
            workload->setup();
        }
        it.setup_s = workload->setupSeconds(nowS() - t0);
        const double rss1 = rssMb();

        const double c0 = cpuS();
        t0 = nowS();
        {
            Span s("bench.measure");
            it.events = static_cast<double>(workload->measure());
        }
        it.wall_s = nowS() - t0;
        it.cpu_s = cpuS() - c0;
        // Later iterations reuse the heap the first one grew.
        if (k == 0)
            mem = {peakRssMb(), rss1 - rss0, peakRssMb() - rss1};

        workload->check(checks);
        if (it.traced)
            workload->probe(checks);
        workload->teardown();
        tracer().setIteration(-1);
        std::printf("iteration %d%s: setup_s %.6f wall_s %.6f cpu_s %.6f "
                    "events %.0f\n",
                    k, it.traced ? " (traced)" : "", it.setup_s, it.wall_s,
                    it.cpu_s, it.events);
        std::fflush(stdout);
        iters.push_back(it);
    }

    const std::vector<Metric> metrics =
        opts.trace ? layerMetrics(opts, iters, workload->counts(), mem)
                   : endToEndMetrics(iters, mem);

    const double failed_frac =
        checks.attempted() == 0
            ? 1.0
            : static_cast<double>(checks.failed()) /
                  static_cast<double>(checks.attempted());
    std::printf("iterations %zu; ops_failed_frac %s (%llu of %llu checks "
                "failed)\n",
                iters.size(), jsonNumber(failed_frac).c_str(),
                static_cast<unsigned long long>(checks.failed()),
                static_cast<unsigned long long>(checks.attempted()));
    for (const Metric &metric : metrics) {
        std::printf("  %-40s %16.6f %s\n", metric.name.c_str(), metric.value,
                    metric.unit.c_str());
    }

    if (opts.trace) {
        std::error_code ec;
        std::filesystem::create_directories(args.out_dir, ec);
        const std::string path = args.out_dir + "/" + opts.workload + "-seed" +
                                 std::to_string(opts.seed) + ".json";
        if (tracer().writeChromeTrace(path, record))
            std::printf("host-time trace: %s\n", path.c_str());
        else
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         path.c_str());
    }

    std::string json = "{";
    for (const Metric &metric : metrics) {
        if (json.size() > 1)
            json += ',';
        json += jsonString(metric.name) + ":{\"value\":" +
                jsonNumber(metric.value) +
                ",\"unit\":" + jsonString(metric.unit) + "}";
    }
    json += "}";
    std::printf("{\"correct\":%s,\"attempted\":%llu,\"failed\":%llu,"
                "\"metrics\":%s}\n",
                checks.failed() == 0 && checks.attempted() > 0 ? "true"
                                                               : "false",
                static_cast<unsigned long long>(
                    std::max<std::uint64_t>(1, checks.attempted())),
                static_cast<unsigned long long>(
                    checks.attempted() == 0 ? 1 : checks.failed()),
                json.c_str());
    return 0;
}
