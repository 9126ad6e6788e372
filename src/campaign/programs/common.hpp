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
 * Longest simulated span a program may lay out (a century, in
 * minutes), well inside SimTime's range of about 292 years.
 */
inline constexpr std::uint64_t kMaxSpanMinutes = 100ULL * 365 * 24 * 60;

/**
 * Refuse @p count steps of @p minutes each (@p steps names what is
 * counted) when together they span more than kMaxSpanMinutes: each key
 * can sit inside its bound while the product runs past SimTime's
 * range. Throws SpecError at @p line_no, the line that pushes the span
 * over; programs call it before they build a platform.
 */
void checkSpan(const CampaignSpec &spec, std::size_t line_no,
               std::uint64_t count, const char *steps,
               std::uint64_t minutes);

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
