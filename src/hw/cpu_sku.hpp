/**
 * @file
 * CPU SKU catalog.
 *
 * A SKU is what `cpuid` would reveal to a Gen 1 container: the model
 * string (with its labeled base frequency) and nothing else. The labeled
 * frequency doubles as the "reported TSC frequency" the paper's first
 * frequency-derivation method relies on (Section 4.2, method 1).
 */

#ifndef EAAO_HW_CPU_SKU_HPP
#define EAAO_HW_CPU_SKU_HPP

#include <cstdint>
#include <string>
#include <string_view>
#include <vector>

namespace eaao::hw {

/** Identifier into the SKU catalog. */
using SkuId = std::uint32_t;

/** A processor model as visible through cpuid. */
struct CpuSku
{
    std::string model_name;   //!< e.g. "Intel Xeon CPU @ 2.00GHz"
    double nominal_hz = 0.0;  //!< labeled base frequency (== reported TSC)
    std::uint32_t vcpus = 0;  //!< logical CPUs per host of this SKU
    double memory_gb = 0.0;   //!< installed memory per host
};

/**
 * The catalog of host SKUs used by the simulated fleet.
 *
 * Modeled after the handful of Xeon generations observable on Cloud Run;
 * the exact strings are synthetic but follow the paper's example format
 * ("Intel Xeon CPU @ 2.00GHz" carries the 2.00 GHz reported frequency).
 */
class SkuCatalog
{
  public:
    /** Build the default catalog. */
    SkuCatalog();

    /** Look up a SKU by id. */
    const CpuSku &get(SkuId id) const;

    /** Number of SKUs. */
    std::size_t size() const { return skus_.size(); }

    /**
     * Parse the labeled base frequency out of a model string, as the
     * attacker does when cpuid does not report the TSC frequency.
     * Allocation-free and correctly rounded, like strtod.
     * @return frequency in Hz, or 0 unless the string ends in an
     *         "@ x.xxGHz" suffix.
     */
    static double labeledFrequencyHz(std::string_view model_name);

  private:
    std::vector<CpuSku> skus_;
};

} // namespace eaao::hw

#endif // EAAO_HW_CPU_SKU_HPP
