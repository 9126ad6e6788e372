/**
 * @file
 * Shared helpers for the ported campaign programs: resolving
 * data-center profile names and home-shard tokens from spec files.
 */

#ifndef EAAO_CAMPAIGN_PROGRAMS_COMMON_HPP
#define EAAO_CAMPAIGN_PROGRAMS_COMMON_HPP

#include "campaign/spec.hpp"
#include "faas/fleet.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace eaao::campaign {

/**
 * Largest minute count a program takes from a token (a year), so a
 * minute token times 60e9 ns stays far inside a Duration.
 */
inline constexpr std::uint32_t kMaxMinutes = 365 * 24 * 60;

/** Largest hour count a program takes from a key (a year). */
inline constexpr std::uint32_t kMaxHours = 365 * 24;

/**
 * The paper-calibrated preset named @p name (us-east1 / us-central1 /
 * us-west1). Throws SpecError at @p line_no of @p spec otherwise.
 */
faas::DataCenterProfile profileByName(const CampaignSpec &spec,
                                      const std::string &name,
                                      std::size_t line_no);

/**
 * Profiles named by the required list `[section] key = n1 n2 ...`.
 * A nonzero @p count is the exact length the program's tables are laid
 * out for; any other length throws SpecError at the line.
 */
std::vector<faas::DataCenterProfile>
profileList(const CampaignSpec &spec, const std::string &section,
            const std::string &key, std::size_t count = 0);

/** Profile named by the required scalar `[section] key = name`. */
faas::DataCenterProfile profileOf(const CampaignSpec &spec,
                                  const std::string &section,
                                  const std::string &key);

/**
 * Token @p index of @p line as a home shard of @p profile. Throws
 * SpecError at the line unless it is below the profile's shard count,
 * so a bad shard fails before any platform is built.
 */
std::uint32_t homeShard(const CampaignSpec &spec, const SpecLine &line,
                        std::size_t index,
                        const faas::DataCenterProfile &profile);

} // namespace eaao::campaign

#endif // EAAO_CAMPAIGN_PROGRAMS_COMMON_HPP
