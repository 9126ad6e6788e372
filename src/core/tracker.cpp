/**
 * @file
 * Implementation of fingerprint tracking.
 */

#include "core/tracker.hpp"

#include <cmath>

#include "obs/metrics.hpp"
#include "support/logging.hpp"

namespace eaao::core {

void
FingerprintHistory::setObserver(obs::Observer observer)
{
    if (observer.metrics != nullptr) {
        c_observations_ = observer.metrics->counter(
            "tracker.observations");
        h_expiration_days_ = observer.metrics->histogram(
            "tracker.expiration_days", obs::expirationDaysBuckets());
    } else {
        c_observations_ = nullptr;
        h_expiration_days_ = nullptr;
    }
}

void
FingerprintHistory::add(sim::SimTime when, double tboot_s)
{
    if (!wall_s_.empty()) {
        EAAO_ASSERT(when.secondsF() >= wall_s_.back(),
                    "history must be appended in time order");
    }
    wall_s_.push_back(when.secondsF());
    tboot_s_.push_back(tboot_s);
    EAAO_OBS_COUNT(c_observations_, 1);
}

sim::Duration
FingerprintHistory::span() const
{
    if (wall_s_.size() < 2)
        return sim::Duration();
    return sim::Duration::fromSecondsF(wall_s_.back() - wall_s_.front());
}

stats::LinearFit
FingerprintHistory::fitDrift() const
{
    return stats::linearRegression(wall_s_, tboot_s_);
}

std::optional<double>
FingerprintHistory::expirationSeconds(double p_boot_s) const
{
    EAAO_ASSERT(p_boot_s > 0.0, "non-positive rounding precision");
    const stats::LinearFit fit = fitDrift();
    if (std::fabs(fit.slope) < 1e-12)
        return std::nullopt;

    // Fitted T_boot at the last observation; boundaries of the rounding
    // bucket sit at (bucket +- 0.5) * p_boot.
    const double x_last = wall_s_.back();
    const double tau = fit.at(x_last);
    const double bucket = std::round(tau / p_boot_s);
    double distance;
    if (fit.slope > 0.0)
        distance = (bucket + 0.5) * p_boot_s - tau;
    else
        distance = tau - (bucket - 0.5) * p_boot_s;
    // Numerical safety: tau can sit exactly on a boundary.
    distance = std::max(distance, 0.0);
    const double expiration_s = distance / std::fabs(fit.slope);
    EAAO_OBS_OBSERVE(h_expiration_days_, expiration_s / 86400.0);
    return expiration_s;
}

} // namespace eaao::core
