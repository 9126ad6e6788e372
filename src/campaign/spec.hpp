/**
 * @file
 * Typed view over a parsed `eaao-scenario v2` spec file.
 *
 * CampaignSpec wraps a SpecFile with checked accessors: every getter
 * that fails (missing required key, non-numeric value, bad trigger
 * expression) throws a SpecError whose message is one line and names
 * the offending file:line. Campaign programs (runner.hpp) read every
 * knob — seeds, sweep lists, platform shape, notes — through this
 * class so a typo in a `.scenario` file fails fast at load time.
 */

#ifndef EAAO_CAMPAIGN_SPEC_HPP
#define EAAO_CAMPAIGN_SPEC_HPP

#include "campaign/specfile.hpp"
#include "campaign/trigger.hpp"

#include <cstdint>
#include <string>
#include <vector>

namespace eaao::campaign {

class CampaignSpec
{
  public:
    /** Read and parse @p path; throws SpecError (file:line message). */
    static CampaignSpec load(const std::string &path);

    /** Parse in-memory @p text; @p path labels error messages. */
    static CampaignSpec parse(const std::string &text,
                              const std::string &path = "<memory>");

    const SpecFile &file() const { return file_; }

    /** Required `[campaign] name`. */
    const std::string &name() const { return name_; }

    /** Required `[campaign] program` — selects the registered kernel. */
    const std::string &program() const { return program_; }

    /** `[campaign] title` (empty when absent). */
    const std::string &title() const { return title_; }

    // -- Checked scalar access, addressed by (section, key). ---------

    bool has(const std::string &section, const std::string &key) const;

    std::string str(const std::string &section,
                    const std::string &key) const;
    std::string str(const std::string &section, const std::string &key,
                    const std::string &fallback) const;

    double num(const std::string &section, const std::string &key) const;
    double num(const std::string &section, const std::string &key,
               double fallback) const;

    std::uint32_t u32(const std::string &section,
                      const std::string &key) const;
    std::uint32_t u32(const std::string &section, const std::string &key,
                      std::uint32_t fallback) const;

    std::uint64_t u64(const std::string &section,
                      const std::string &key) const;

    /** Default bound of count(): far past any campaign, with room for
     *  `i <= n` loops and products with 60 in int. */
    static constexpr std::uint32_t kMaxCount = 1'000'000;

    /**
     * Required key as an int in [0, @p max] (<= INT_MAX): the runs,
     * launches, minutes and hours programs loop over with `int`,
     * range-checked before the cast so no value wraps.
     */
    int count(const std::string &section, const std::string &key,
              std::uint32_t max = kMaxCount) const;

    bool flag(const std::string &section, const std::string &key,
              bool fallback) const;

    // -- List access. ------------------------------------------------

    /** Value tokens of a required `key = a b c ...` line, as numbers. */
    std::vector<double> numList(const std::string &section,
                                const std::string &key) const;

    /**
     * Value tokens of a required key line as integers in [0, @p max]
     * (sweep lists).
     */
    std::vector<std::uint32_t> u32List(const std::string &section,
                                       const std::string &key,
                                       std::uint32_t max = UINT32_MAX) const;

    /** Value tokens of a required key line, verbatim. */
    std::vector<std::string> strList(const std::string &section,
                                     const std::string &key) const;

    // -- Directive tokens (@p line comes from directives()). ---------

    /** Token @p index of @p line as a number. */
    double numAt(const SpecLine &line, std::size_t index) const;

    /** Token @p index of @p line as an integer in [0, @p max]. */
    std::uint32_t u32At(const SpecLine &line, std::size_t index,
                        std::uint32_t max = UINT32_MAX) const;

    /** Token @p index of @p line as a 64-bit nonnegative integer. */
    std::uint64_t u64At(const SpecLine &line, std::size_t index) const;

    /**
     * Every directive line in @p section whose first token is
     * @p head, in file order (empty when the section is absent).
     */
    std::vector<const SpecLine *>
    directives(const std::string &section, const std::string &head) const;

    // -- Structured sections. ---------------------------------------

    /** Parsed `[triggers]` lines (conditions compiled, arity-checked). */
    std::vector<Trigger> triggers() const;

    /** `[outputs] note =` lines, in file order. */
    std::vector<std::string> notes() const;

    /** `[outputs] trigger_log = 1` requests the firing log. */
    bool triggerLog() const { return flag("outputs", "trigger_log", false); }

    /** Throw a SpecError at @p line_no of this file. */
    [[noreturn]] void fail(std::size_t line_no,
                           const std::string &why) const;

  private:
    const SpecLine *findLine(const std::string &section,
                             const std::string &key) const;
    const SpecLine &requireLine(const std::string &section,
                                const std::string &key) const;
    const std::string &tokenAt(const SpecLine &line,
                               std::size_t index) const;
    double numFromToken(const SpecLine &line,
                        const std::string &token) const;
    /** @p token as an integer in [0, @p max], range-checked before
     *  any cast. */
    std::uint64_t uintFromToken(const SpecLine &line,
                                const std::string &token,
                                std::uint64_t max) const;

    SpecFile file_;
    std::string name_;
    std::string program_;
    std::string title_;
};

} // namespace eaao::campaign

#endif // EAAO_CAMPAIGN_SPEC_HPP
