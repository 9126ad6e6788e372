/**
 * @file
 * Implementation of the CPU SKU catalog.
 */

#include "hw/cpu_sku.hpp"

#include <charconv>

#include "support/logging.hpp"

namespace eaao::hw {

SkuCatalog::SkuCatalog()
{
    skus_ = {
        {"Intel Xeon CPU @ 2.00GHz", 2.00e9, 96, 384.0},
        {"Intel Xeon CPU @ 2.20GHz", 2.20e9, 64, 256.0},
        {"Intel Xeon CPU @ 2.25GHz", 2.25e9, 128, 512.0},
        {"Intel Xeon CPU @ 2.30GHz", 2.30e9, 64, 256.0},
        {"Intel Xeon CPU @ 2.60GHz", 2.60e9, 96, 384.0},
        {"Intel Xeon CPU @ 2.80GHz", 2.80e9, 112, 448.0},
    };
}

const CpuSku &
SkuCatalog::get(SkuId id) const
{
    EAAO_ASSERT(id < skus_.size(), "unknown SKU id ", id);
    return skus_[id];
}

double
SkuCatalog::labeledFrequencyHz(std::string_view model_name)
{
    // Look for the "@ <num>GHz" suffix.
    constexpr std::string_view kSuffix = "GHz";
    const auto at = model_name.rfind("@ ");
    if (at == std::string_view::npos || !model_name.ends_with(kSuffix))
        return 0.0;
    const char *first = model_name.data() + at + 2;
    const char *last = model_name.data() + model_name.size() -
                       kSuffix.size();
    double ghz = 0.0;
    const auto [end, ec] = std::from_chars(first, last, ghz);
    if (ec != std::errc() || end != last)
        return 0.0;
    return ghz * 1e9;
}

} // namespace eaao::hw
