/**
 * @file
 * Checked accessors over a parsed campaign spec.
 */

#include "campaign/spec.hpp"

#include "support/logging.hpp"
#include "support/options.hpp"

#include <climits>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <sstream>

namespace eaao::campaign {

namespace {

bool
parseNumber(const std::string &text, double &out)
{
    if (text.empty())
        return false;
    char *end = nullptr;
    out = std::strtod(text.c_str(), &end);
    return end == text.c_str() + text.size();
}

/** What a message calls @p line: its key, or a directive's head. */
const std::string &
nameOf(const SpecLine &line)
{
    return line.key.empty() ? line.tokens[0] : line.key;
}

} // namespace

CampaignSpec
CampaignSpec::load(const std::string &path)
{
    std::ifstream in(path);
    if (!in) {
        throw SpecError(path + ":1: cannot open file");
    }
    std::ostringstream text;
    text << in.rdbuf();
    return parse(text.str(), path);
}

CampaignSpec
CampaignSpec::parse(const std::string &text, const std::string &path)
{
    CampaignSpec spec;
    std::string error;
    if (!SpecFile::parse(text, path, spec.file_, error))
        throw SpecError(error);

    const SpecSection *campaign = spec.file_.section("campaign");
    if (campaign == nullptr) {
        throw SpecError(path + ":1: missing required section [campaign]");
    }
    spec.name_ = spec.str("campaign", "name");
    spec.program_ = spec.str("campaign", "program");
    spec.title_ = spec.str("campaign", "title", "");

    // Compile trigger conditions now so a malformed expression fails
    // the load with its line number instead of surfacing mid-run.
    (void)spec.triggers();
    return spec;
}

void
CampaignSpec::fail(std::size_t line_no, const std::string &why) const
{
    throw SpecError(file_.path + ":" + std::to_string(line_no) + ": " +
                    why);
}

const SpecLine *
CampaignSpec::findLine(const std::string &section,
                       const std::string &key) const
{
    const SpecSection *s = file_.section(section);
    return s == nullptr ? nullptr : s->find(key);
}

const SpecLine &
CampaignSpec::requireLine(const std::string &section,
                          const std::string &key) const
{
    const SpecLine *line = findLine(section, key);
    if (line == nullptr) {
        const SpecSection *s = file_.section(section);
        if (s == nullptr) {
            throw SpecError(file_.path + ":1: missing required section [" +
                            section + "] (wanted key '" + key + "')");
        }
        fail(s->line_no,
             "[" + section + "] is missing required key '" + key + "'");
    }
    return *line;
}

const std::string &
CampaignSpec::tokenAt(const SpecLine &line, std::size_t index) const
{
    if (index >= line.tokens.size()) {
        fail(line.line_no, "'" + nameOf(line) + "' is missing value " +
                               std::to_string(index));
    }
    return line.tokens[index];
}

double
CampaignSpec::numFromToken(const SpecLine &line,
                           const std::string &token) const
{
    double value = 0.0;
    if (!parseNumber(token, value)) {
        fail(line.line_no,
             "'" + nameOf(line) + "' expects a number, got '" + token + "'");
    }
    return value;
}

std::uint64_t
CampaignSpec::uintFromToken(const SpecLine &line, const std::string &token,
                            std::uint64_t max) const
{
    // Digits parse exactly, seeds past 2^53 included. Other spellings
    // ("3.0", "1e3") take the number path and must be integral.
    if (const auto exact = support::parseUint(token.c_str(), 0, max))
        return *exact;
    const double value = numFromToken(line, token);
    // Converting a double outside [0, 2^64) is undefined, so the range
    // check comes first.
    if (value >= 0.0 && value < 0x1p64 && value == std::floor(value) &&
        static_cast<std::uint64_t>(value) <= max)
        return static_cast<std::uint64_t>(value);
    fail(line.line_no, "'" + nameOf(line) + "' expects an integer in 0.." +
                           std::to_string(max) + ", got '" + token + "'");
}

bool
CampaignSpec::has(const std::string &section, const std::string &key) const
{
    return findLine(section, key) != nullptr;
}

std::string
CampaignSpec::str(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    if (line.tokens.size() == 1)
        return line.tokens[0];  // unquotes a single quoted token
    return line.value;
}

std::string
CampaignSpec::str(const std::string &section, const std::string &key,
                  const std::string &fallback) const
{
    return has(section, key) ? str(section, key) : fallback;
}

double
CampaignSpec::num(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    return numFromToken(line, line.value);
}

double
CampaignSpec::num(const std::string &section, const std::string &key,
                  double fallback) const
{
    return has(section, key) ? num(section, key) : fallback;
}

std::uint32_t
CampaignSpec::u32(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    return static_cast<std::uint32_t>(
        uintFromToken(line, line.value, UINT32_MAX));
}

std::uint32_t
CampaignSpec::u32(const std::string &section, const std::string &key,
                  std::uint32_t fallback) const
{
    return has(section, key) ? u32(section, key) : fallback;
}

std::uint64_t
CampaignSpec::u64(const std::string &section, const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    return uintFromToken(line, line.value, UINT64_MAX);
}

int
CampaignSpec::count(const std::string &section, const std::string &key,
                    std::uint32_t max) const
{
    EAAO_ASSERT(max <= INT_MAX, "count bound ", max, " exceeds int");
    const SpecLine &line = requireLine(section, key);
    return static_cast<int>(uintFromToken(line, line.value, max));
}

bool
CampaignSpec::flag(const std::string &section, const std::string &key,
                   bool fallback) const
{
    if (!has(section, key))
        return fallback;
    const std::string value = str(section, key);
    if (value == "1" || value == "true")
        return true;
    if (value == "0" || value == "false")
        return false;
    fail(findLine(section, key)->line_no,
         "'" + key + "' expects 0/1/true/false, got '" + value + "'");
}

std::vector<double>
CampaignSpec::numList(const std::string &section,
                      const std::string &key) const
{
    const SpecLine &line = requireLine(section, key);
    std::vector<double> values;
    values.reserve(line.tokens.size());
    for (const std::string &token : line.tokens)
        values.push_back(numFromToken(line, token));
    return values;
}

std::vector<std::uint32_t>
CampaignSpec::u32List(const std::string &section, const std::string &key,
                      std::uint32_t max) const
{
    const SpecLine &line = requireLine(section, key);
    std::vector<std::uint32_t> values;
    values.reserve(line.tokens.size());
    for (const std::string &token : line.tokens) {
        values.push_back(
            static_cast<std::uint32_t>(uintFromToken(line, token, max)));
    }
    return values;
}

std::vector<std::string>
CampaignSpec::strList(const std::string &section,
                      const std::string &key) const
{
    return requireLine(section, key).tokens;
}

double
CampaignSpec::numAt(const SpecLine &line, std::size_t index) const
{
    return numFromToken(line, tokenAt(line, index));
}

std::uint32_t
CampaignSpec::u32At(const SpecLine &line, std::size_t index,
                    std::uint32_t max) const
{
    return static_cast<std::uint32_t>(
        uintFromToken(line, tokenAt(line, index), max));
}

std::uint64_t
CampaignSpec::u64At(const SpecLine &line, std::size_t index) const
{
    return uintFromToken(line, tokenAt(line, index), UINT64_MAX);
}

std::vector<const SpecLine *>
CampaignSpec::directives(const std::string &section,
                         const std::string &head) const
{
    const SpecSection *s = file_.section(section);
    if (s == nullptr)
        return {};
    std::vector<const SpecLine *> hits;
    for (const SpecLine &line : s->lines) {
        if (!line.isKeyValue() && line.tokens[0] == head)
            hits.push_back(&line);
    }
    return hits;
}

std::vector<Trigger>
CampaignSpec::triggers() const
{
    std::vector<Trigger> out;
    for (const SpecLine *line : directives("triggers", "trigger")) {
        // trigger <name> when <expr...> emit "<message>"
        const std::vector<std::string> &toks = line->tokens;
        const std::string where =
            file_.path + ":" + std::to_string(line->line_no);
        if (toks.size() < 5 || toks[2] != "when") {
            fail(line->line_no,
                 "expected: trigger <name> when <condition> emit "
                 "\"<message>\"");
        }
        std::size_t emit = toks.size();
        for (std::size_t i = 3; i < toks.size(); ++i) {
            if (toks[i] == "emit")
                emit = i;
        }
        if (emit + 2 != toks.size()) {
            fail(line->line_no,
                 "trigger '" + toks[1] +
                     "' must end with: emit \"<message>\"");
        }
        std::string condition;
        for (std::size_t i = 3; i < emit; ++i) {
            if (!condition.empty())
                condition += " ";
            condition += toks[i];
        }
        Trigger trigger;
        trigger.name = toks[1];
        trigger.condition_text = condition;
        trigger.condition = parseExpr(condition, where);
        trigger.message = toks[emit + 1];
        out.push_back(std::move(trigger));
    }
    return out;
}

std::vector<std::string>
CampaignSpec::notes() const
{
    std::vector<std::string> out;
    const SpecSection *s = file_.section("outputs");
    if (s == nullptr)
        return out;
    for (const SpecLine &line : s->lines) {
        if (line.key != "note")
            continue;
        // A fully quoted note keeps leading/trailing whitespace that
        // the line trimmer would otherwise eat.
        if (line.value.size() >= 2 && line.value.front() == '"' &&
            line.value.back() == '"') {
            out.push_back(
                line.value.substr(1, line.value.size() - 2));
        } else {
            out.push_back(line.value);
        }
    }
    return out;
}

} // namespace eaao::campaign
