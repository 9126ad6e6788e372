/**
 * @file
 * The Observer handle: how instrumented subsystems reach the
 * observability layer, and the macros that gate every instrument site.
 *
 * An Observer is two non-owning pointers (trace sink, metrics
 * registry), both usually null. It is passed by value through
 * PlatformConfig into the orchestrator, channels and attacker-side
 * drivers; a default-constructed Observer disables everything, so the
 * cost of an instrument site in a normal run is one
 * branch-on-null-pointer.
 */

#ifndef EAAO_OBS_OBSERVER_HPP
#define EAAO_OBS_OBSERVER_HPP

namespace eaao::obs {

class TraceSink;
class MetricsRegistry;
struct Counter;
struct Histogram;

/** Non-owning handle to a trial's trace sink and metrics registry. */
struct Observer
{
    TraceSink *trace = nullptr;
    MetricsRegistry *metrics = nullptr;

    /** True when any recording is active. */
    bool
    enabled() const
    {
        return trace != nullptr || metrics != nullptr;
    }
};

} // namespace eaao::obs

/** Record an instant event if @p observer has a trace sink. */
#define EAAO_OBS_INSTANT(observer, ...)                                      \
    do {                                                                     \
        if ((observer).trace != nullptr)                                     \
            (observer).trace->instant(__VA_ARGS__);                          \
    } while (0)

/** Record a complete span if @p observer has a trace sink. */
#define EAAO_OBS_SPAN(observer, ...)                                         \
    do {                                                                     \
        if ((observer).trace != nullptr)                                     \
            (observer).trace->complete(__VA_ARGS__);                         \
    } while (0)

/** Bump a resolved (possibly null) obs::Counter handle. */
#define EAAO_OBS_COUNT(counter_ptr, n)                                       \
    do {                                                                     \
        if ((counter_ptr) != nullptr)                                        \
            (counter_ptr)->add(n);                                           \
    } while (0)

/** Observe into a resolved (possibly null) obs::Histogram handle. */
#define EAAO_OBS_OBSERVE(histogram_ptr, x)                                   \
    do {                                                                     \
        if ((histogram_ptr) != nullptr)                                      \
            (histogram_ptr)->observe(x);                                     \
    } while (0)

#endif // EAAO_OBS_OBSERVER_HPP
