/**
 * @file
 * Profile-name and home-shard resolution for campaign programs.
 */

#include "campaign/programs/common.hpp"

namespace eaao::campaign {

faas::DataCenterProfile
profileByName(const CampaignSpec &spec, const std::string &name,
              std::size_t line_no)
{
    if (name == "us-east1")
        return faas::DataCenterProfile::usEast1();
    if (name == "us-central1")
        return faas::DataCenterProfile::usCentral1();
    if (name == "us-west1")
        return faas::DataCenterProfile::usWest1();
    spec.fail(line_no, "unknown data-center profile '" + name +
                           "' (known: us-east1, us-central1, us-west1)");
}

std::vector<faas::DataCenterProfile>
profileList(const CampaignSpec &spec, const std::string &section,
            const std::string &key, std::size_t count)
{
    const std::vector<std::string> names = spec.strList(section, key);
    const SpecLine *line = spec.file().section(section)->find(key);
    if (count != 0 && names.size() != count) {
        spec.fail(line->line_no, "'" + key + "' expects " +
                                     std::to_string(count) +
                                     " data-center profiles, got " +
                                     std::to_string(names.size()));
    }
    std::vector<faas::DataCenterProfile> profiles;
    profiles.reserve(names.size());
    for (const std::string &name : names)
        profiles.push_back(profileByName(spec, name, line->line_no));
    return profiles;
}

faas::DataCenterProfile
profileOf(const CampaignSpec &spec, const std::string &section,
          const std::string &key)
{
    const std::string name = spec.str(section, key);
    const SpecLine *line = spec.file().section(section)->find(key);
    return profileByName(spec, name, line->line_no);
}

void
checkSpan(const CampaignSpec &spec, std::size_t line_no,
          std::uint64_t count, const char *steps, std::uint64_t minutes)
{
    // count * minutes > kMaxSpanMinutes, without forming the product.
    if (minutes != 0 && count > kMaxSpanMinutes / minutes) {
        spec.fail(line_no, std::to_string(count) + " " + steps + " x " +
                               std::to_string(minutes) +
                               " minutes spans more than a century of "
                               "simulated time");
    }
}

std::uint32_t
homeShard(const CampaignSpec &spec, const SpecLine &line, std::size_t index,
          const faas::DataCenterProfile &profile)
{
    const std::uint32_t shard = spec.u32At(line, index);
    const std::uint32_t shards = profile.shardCount();
    if (shard >= shards) {
        spec.fail(line.line_no, "home shard " + std::to_string(shard) +
                                    " is out of range: " + profile.name +
                                    " has shards 0.." +
                                    std::to_string(shards - 1));
    }
    return shard;
}

} // namespace eaao::campaign
