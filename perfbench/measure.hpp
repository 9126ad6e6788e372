/**
 * @file
 * Host-time measurement for the repo benchmark: clocks, memory, the
 * in-memory span tracer, order statistics, correctness checks and
 * stdout capture. Nothing here touches the simulator's deterministic
 * outputs; the span file is written only when the run ends.
 */

#ifndef EAAO_PERFBENCH_MEASURE_HPP
#define EAAO_PERFBENCH_MEASURE_HPP

#include <cstdint>
#include <string>
#include <vector>

namespace perfbench {

/** Steady-clock seconds since an arbitrary origin. */
double nowS();

/** CPU seconds used by every thread of this process so far. */
double cpuS();

/** Resident set size now, in MB (from /proc/self/statm). */
double rssMb();

/** Peak resident set size of this process so far, in MB. */
double peakRssMb();

/** One recorded span: a call the benchmark made into one layer. */
struct SpanRec
{
    std::string name;   //!< "<layer>.<operation>", e.g. "snap.restore"
    std::string detail; //!< optional qualifier (campaign file name)
    int parent = -1;    //!< index of the enclosing span, -1 at top level
    int iter = -1;      //!< benchmark iteration the span belongs to
    double t0 = 0.0, t1 = 0.0; //!< steady-clock seconds
    double c0 = 0.0, c1 = 0.0; //!< process CPU seconds
    std::uint64_t arg = 0;     //!< optional payload (bytes, requests)
};

/**
 * Records spans in memory while enabled (one iteration at a time, from
 * the single benchmark thread). Disabled, opening a span is one branch.
 */
class Tracer
{
  public:
    /** Record the spans of iteration @p iter (or stop, with -1). */
    void setIteration(int iter) { iter_ = iter; }
    bool enabled() const { return iter_ >= 0; }

    int open(std::string name, std::string detail);
    void close(int index, std::uint64_t arg);

    const std::vector<SpanRec> &spans() const { return spans_; }

    /** Each span's duration minus the time its direct children cover. */
    std::vector<double> selfTimes() const;

    /** Write the spans as a Chrome trace_event file; false on error. */
    bool writeChromeTrace(const std::string &path,
                          const std::string &record_json) const;

  private:
    std::vector<SpanRec> spans_;
    std::vector<int> stack_;
    int iter_ = -1;
};

/** The process-wide tracer the workloads record into. */
Tracer &tracer();

/** RAII span around one call; a no-op while the tracer is disabled. */
class Span
{
  public:
    explicit Span(std::string name, std::string detail = {})
        : index_(tracer().enabled()
                     ? tracer().open(std::move(name), std::move(detail))
                     : -1)
    {
    }
    ~Span() { end(); }
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    void setArg(std::uint64_t arg) { arg_ = arg; }

    /** Close the span early (idempotent). */
    void end()
    {
        if (index_ >= 0)
            tracer().close(index_, arg_);
        index_ = -1;
    }

  private:
    int index_;
    std::uint64_t arg_ = 0;
};

/** Median of @p v (0 when empty). */
double median(std::vector<double> v);

/**
 * Median and tail of a sample set. The tail is the highest percentile
 * that still has at least ten samples beyond it (the order statistic
 * with exactly ten larger samples), and tail_pct says which percentile
 * that is. With fewer than 11 samples it is the maximum (tail_pct 100).
 */
struct Tail
{
    double p50 = 0.0;
    double tail = 0.0;
    double tail_pct = 0.0;
    std::size_t samples = 0;
};
Tail tailOf(std::vector<double> v);

/**
 * Correctness checks of one run. A failed check is counted, reported
 * on stderr and never aborts the run.
 */
class Checks
{
  public:
    void expect(bool ok, const std::string &what);
    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Redirects file descriptor 1 into an anonymous in-memory file for its
 * lifetime, so programs that print straight to stdout can be checked
 * against their goldens. take() returns what was printed so far.
 */
class StdoutCapture
{
  public:
    StdoutCapture();
    ~StdoutCapture();
    StdoutCapture(const StdoutCapture &) = delete;
    StdoutCapture &operator=(const StdoutCapture &) = delete;

    /** Flush, read back and clear the captured text. */
    std::string take();

  private:
    int memfd_ = -1;
    int saved_ = -1;
};

/** Whole file as a string; false when it cannot be read. */
bool readText(const std::string &path, std::string &out);

/** Lines of @p text (without their newlines). */
std::vector<std::string> splitLines(const std::string &text);

/** Whitespace-separated tokens of @p line. */
std::vector<std::string> tokens(const std::string &line);

/** printf into a std::string. */
std::string fmt(const char *format, ...)
    __attribute__((format(printf, 1, 2)));

} // namespace perfbench

#endif // EAAO_PERFBENCH_MEASURE_HPP
