/**
 * @file
 * Implementation of the benchmark's host-time measurement helpers.
 */

#include "measure.hpp"

#include <algorithm>
#include <chrono>
#include <cstdarg>
#include <cstdio>
#include <cstdlib>
#include <ctime>
#include <fstream>
#include <sstream>

#include <sys/mman.h>
#include <sys/resource.h>
#include <unistd.h>

namespace perfbench {

double
nowS()
{
    return std::chrono::duration<double>(
               std::chrono::steady_clock::now().time_since_epoch())
        .count();
}

double
cpuS()
{
    timespec ts{};
    clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &ts);
    return static_cast<double>(ts.tv_sec) +
           static_cast<double>(ts.tv_nsec) * 1e-9;
}

double
rssMb()
{
    long pages_total = 0;
    long pages_resident = 0;
    std::FILE *f = std::fopen("/proc/self/statm", "r");
    if (f == nullptr)
        return 0.0;
    const int got = std::fscanf(f, "%ld %ld", &pages_total, &pages_resident);
    std::fclose(f);
    if (got != 2)
        return 0.0;
    return static_cast<double>(pages_resident) *
           static_cast<double>(sysconf(_SC_PAGESIZE)) / (1024.0 * 1024.0);
}

double
peakRssMb()
{
    rusage ru{};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // ru_maxrss is KiB
}

// -- Tracer -----------------------------------------------------------

int
Tracer::open(std::string name, std::string detail)
{
    SpanRec s;
    s.name = std::move(name);
    s.detail = std::move(detail);
    s.parent = stack_.empty() ? -1 : stack_.back();
    s.iter = iter_;
    s.c0 = cpuS();
    s.t0 = nowS();
    spans_.push_back(std::move(s));
    const int index = static_cast<int>(spans_.size() - 1);
    stack_.push_back(index);
    return index;
}

void
Tracer::close(int index, std::uint64_t arg)
{
    SpanRec &s = spans_[static_cast<std::size_t>(index)];
    s.t1 = nowS();
    s.c1 = cpuS();
    s.arg = arg;
    // Spans nest strictly on the one benchmark thread.
    if (!stack_.empty() && stack_.back() == index)
        stack_.pop_back();
}

std::vector<double>
Tracer::selfTimes() const
{
    std::vector<double> self(spans_.size());
    for (std::size_t i = 0; i < spans_.size(); ++i)
        self[i] = spans_[i].t1 - spans_[i].t0;
    for (const SpanRec &s : spans_) {
        if (s.parent >= 0)
            self[static_cast<std::size_t>(s.parent)] -= s.t1 - s.t0;
    }
    return self;
}

bool
Tracer::writeChromeTrace(const std::string &path,
                         const std::string &record_json) const
{
    std::ofstream out(path);
    if (!out)
        return false;
    const double origin = spans_.empty() ? 0.0 : spans_.front().t0;
    const std::vector<double> self = selfTimes();
    out << "{\"displayTimeUnit\":\"ms\",\"otherData\":" << record_json
        << ",\"traceEvents\":[";
    for (std::size_t i = 0; i < spans_.size(); ++i) {
        const SpanRec &s = spans_[i];
        const std::string layer = s.name.substr(0, s.name.find('.'));
        out << (i == 0 ? "\n" : ",\n")
            << fmt("{\"name\":\"%s\",\"cat\":\"%s\",\"ph\":\"X\",\"pid\":1,"
                   "\"tid\":1,\"ts\":%.3f,\"dur\":%.3f,\"args\":{\"id\":%zu,"
                   "\"parent\":%d,\"iter\":%d,\"self_us\":%.3f,"
                   "\"cpu_us\":%.3f,\"arg\":%llu,\"detail\":\"%s\"}}",
                   s.name.c_str(), layer.c_str(), (s.t0 - origin) * 1e6,
                   (s.t1 - s.t0) * 1e6, i, s.parent, s.iter, self[i] * 1e6,
                   (s.c1 - s.c0) * 1e6,
                   static_cast<unsigned long long>(s.arg),
                   s.detail.c_str());
    }
    out << "\n]}\n";
    return static_cast<bool>(out);
}

Tracer &
tracer()
{
    static Tracer instance;
    return instance;
}

// -- Statistics -------------------------------------------------------

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

Tail
tailOf(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    t.p50 = median(v);
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    if (n <= 10) {
        t.tail = v[n - 1];
        t.tail_pct = 100.0;
        return t;
    }
    t.tail = v[n - 11];
    t.tail_pct = 100.0 * static_cast<double>(n - 10) / static_cast<double>(n);
    return t;
}

// -- Checks -----------------------------------------------------------

void
Checks::expect(bool ok, const std::string &what)
{
    ++attempted_;
    if (ok)
        return;
    ++failed_;
    // The first few failures say what went wrong; the count says the rest.
    if (failed_ <= 20)
        std::fprintf(stderr, "perfbench: check failed: %s\n", what.c_str());
}

// -- Stdout capture ---------------------------------------------------

StdoutCapture::StdoutCapture()
{
    std::fflush(stdout);
    memfd_ = memfd_create("perfbench-stdout", MFD_CLOEXEC);
    saved_ = dup(STDOUT_FILENO);
    if (memfd_ < 0 || saved_ < 0 || dup2(memfd_, STDOUT_FILENO) < 0) {
        std::perror("perfbench: cannot capture stdout");
        std::exit(2);
    }
}

StdoutCapture::~StdoutCapture()
{
    std::fflush(stdout);
    dup2(saved_, STDOUT_FILENO);
    close(saved_);
    close(memfd_);
}

std::string
StdoutCapture::take()
{
    std::fflush(stdout);
    const off_t size = lseek(memfd_, 0, SEEK_CUR);
    std::string text(static_cast<std::size_t>(size > 0 ? size : 0), '\0');
    std::size_t got = 0;
    while (got < text.size()) {
        const ssize_t n = pread(memfd_, text.data() + got, text.size() - got,
                                static_cast<off_t>(got));
        if (n <= 0)
            break;
        got += static_cast<std::size_t>(n);
    }
    text.resize(got);
    if (ftruncate(memfd_, 0) != 0 || lseek(memfd_, 0, SEEK_SET) != 0) {
        std::perror("perfbench: cannot reset stdout capture");
        std::exit(2);
    }
    return text;
}

// -- Text helpers -----------------------------------------------------

bool
readText(const std::string &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream text;
    text << in.rdbuf();
    out = text.str();
    return true;
}

std::vector<std::string>
splitLines(const std::string &text)
{
    std::vector<std::string> lines;
    std::istringstream in(text);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    return lines;
}

std::vector<std::string>
tokens(const std::string &line)
{
    std::vector<std::string> out;
    std::istringstream in(line);
    for (std::string tok; in >> tok;)
        out.push_back(tok);
    return out;
}

std::string
fmt(const char *format, ...)
{
    char buf[1024];
    va_list ap;
    va_start(ap, format);
    const int n = std::vsnprintf(buf, sizeof buf, format, ap);
    va_end(ap);
    if (n < 0)
        return {};
    if (static_cast<std::size_t>(n) < sizeof buf)
        return std::string(buf, static_cast<std::size_t>(n));
    std::string big(static_cast<std::size_t>(n) + 1, '\0');
    va_start(ap, format);
    std::vsnprintf(big.data(), big.size(), format, ap);
    va_end(ap);
    big.resize(static_cast<std::size_t>(n));
    return big;
}

} // namespace perfbench
