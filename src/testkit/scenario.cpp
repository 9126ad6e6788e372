/**
 * @file
 * Scenario serialization and the seeded scenario generator.
 */

#include "testkit/scenario.hpp"

#include <cstdio>
#include <cstring>
#include <sstream>

#include "campaign/specfile.hpp"
#include "snap/format.hpp"
#include "support/logging.hpp"

namespace eaao::testkit {

namespace {

/** Replay-file tokens, indexed by ScenarioStep::Kind. */
constexpr const char *kKindTokens[kStepKindCount] = {
    "connect",   "disconnect",  "route",           "burst",
    "advance",   "restart",     "set_concurrency", "set_quota",
    "redeploy",  "spend_probe", "open_loop",
};

/** Profile names, indexed by Scenario::profile. */
constexpr const char *kProfileNames[3] = {"us-east1", "us-central1",
                                          "us-west1"};

bool
parseProfileName(const std::string &token, std::uint8_t &out)
{
    for (std::uint8_t i = 0; i < 3; ++i) {
        if (token == kProfileNames[i]) {
            out = i;
            return true;
        }
    }
    return false;
}

bool
parseKind(const std::string &token, ScenarioStep::Kind &out)
{
    for (std::size_t i = 0; i < kStepKindCount; ++i) {
        if (token == kKindTokens[i]) {
            out = static_cast<ScenarioStep::Kind>(i);
            return true;
        }
    }
    return false;
}

void drawSteps(sim::Rng &rng, std::uint32_t n_accounts,
               std::uint32_t n_services, std::uint32_t n_steps,
               const GeneratorOptions &opts, std::vector<ScenarioStep> &out);

} // namespace

const char *
toString(ScenarioStep::Kind kind)
{
    const auto i = static_cast<std::size_t>(kind);
    EAAO_ASSERT(i < kStepKindCount, "bad step kind");
    return kKindTokens[i];
}

std::string
Scenario::serialize() const
{
    // The sectioned campaign format (docs/scenario-dsl.md): the
    // shrinker's replays and the fuzzer's generated scenarios share
    // one schema with the bench campaign files, and `run_campaign`
    // executes them directly.
    std::ostringstream out;
    out << "eaao-scenario v2\n";
    out << "\n[campaign]\n";
    out << "name = replay\n";
    out << "program = replay\n";
    out << "\n[platform]\n";
    out << "seed = " << seed << "\n";
    out << "profile = "
        << kProfileNames[profile < 3 ? profile : 0] << "\n";
    out << "hosts = " << host_count << "\n";
    out << "isolate = " << (isolate_accounts ? 1 : 0) << "\n";
    out << "hot_burst_min = " << hot_burst_min << "\n";
    out << "fault = " << fault << "\n";
    out << "\n[tenants]\n";
    for (const ScenarioAccount &a : accounts)
        out << "account " << a.shard << " " << a.quota << "\n";
    for (const ScenarioService &s : services) {
        out << "service " << s.account << " " << static_cast<unsigned>(s.env)
            << " " << static_cast<unsigned>(s.size) << "\n";
    }
    out << "\n[script]\n";
    for (const ScenarioStep &s : steps) {
        out << toString(s.kind) << " " << s.target << " " << s.a
            << " " << s.b << "\n";
    }
    if (has_timetravel) {
        char digest[32];
        std::snprintf(digest, sizeof digest, "%016llx",
                      static_cast<unsigned long long>(tt_prefix_digest));
        out << "\n[timetravel]\n";
        out << "barrier = " << tt_barrier << "\n";
        out << "prefix_steps = " << tt_prefix_steps << "\n";
        out << "prefix_digest = " << digest << "\n";
    }
    return out.str();
}

namespace {

/** Validation of the parsed topology: accounts, services, references. */
bool
validateScenario(const Scenario &out, std::string &error)
{
    if (out.accounts.empty()) {
        error = "scenario has no accounts";
        return false;
    }
    if (out.services.empty()) {
        error = "scenario has no services";
        return false;
    }
    for (std::size_t i = 0; i < out.services.size(); ++i) {
        if (out.services[i].account >= out.accounts.size()) {
            std::ostringstream msg;
            msg << "service " << i << " references account "
                << out.services[i].account << " of " << out.accounts.size();
            error = msg.str();
            return false;
        }
    }
    return true;
}

} // namespace

/**
 * The replay parser reads [platform], [tenants], [script] and
 * [timetravel]; other sections ([campaign], [outputs], ...) belong to
 * the campaign layer and are ignored here.
 */
bool
Scenario::parse(const std::string &text, Scenario &out, std::string &error)
{
    out = Scenario{};
    campaign::SpecFile file;
    if (!campaign::SpecFile::parse(text, "replay", file, error))
        return false;

    std::size_t line_no = 0;
    const auto fail = [&](const std::string &why) {
        std::ostringstream msg;
        msg << "line " << line_no << ": " << why;
        error = msg.str();
        return false;
    };

    if (const campaign::SpecSection *platform = file.section("platform")) {
        for (const campaign::SpecLine &l : platform->lines) {
            line_no = l.line_no;
            if (!l.isKeyValue())
                return fail("expected key = value in [platform]");
            std::istringstream ls(l.value);
            if (l.key == "seed") {
                if (!(ls >> out.seed))
                    return fail("bad seed");
            } else if (l.key == "profile") {
                if (l.tokens.size() != 1 ||
                    !parseProfileName(l.tokens[0], out.profile)) {
                    return fail("bad profile (want us-east1 / "
                                "us-central1 / us-west1)");
                }
            } else if (l.key == "hosts") {
                if (!(ls >> out.host_count))
                    return fail("bad hosts");
            } else if (l.key == "isolate") {
                unsigned v = 0;
                if (!(ls >> v) || v > 1)
                    return fail("bad isolate (want 0/1)");
                out.isolate_accounts = v != 0;
            } else if (l.key == "hot_burst_min") {
                if (!(ls >> out.hot_burst_min))
                    return fail("bad hot_burst_min");
            } else if (l.key == "fault") {
                if (!(ls >> out.fault))
                    return fail("bad fault");
            } else {
                return fail("unknown [platform] key '" + l.key + "'");
            }
        }
    }

    if (const campaign::SpecSection *tenants = file.section("tenants")) {
        for (const campaign::SpecLine &l : tenants->lines) {
            line_no = l.line_no;
            if (l.isKeyValue() || l.tokens.empty())
                return fail("expected 'account ...' or 'service ...' "
                            "in [tenants]");
            std::istringstream ls(l.raw);
            std::string head;
            ls >> head;
            if (head == "account") {
                ScenarioAccount a;
                if (!(ls >> a.shard >> a.quota))
                    return fail(
                        "bad account line (want: account <shard> <quota>)");
                out.accounts.push_back(a);
            } else if (head == "service") {
                ScenarioService s;
                unsigned env = 0, size = 0;
                if (!(ls >> s.account >> env >> size) || env > 1 ||
                    size > 3) {
                    return fail("bad service line (want: service "
                                "<account> <env 0/1> <size 0..3>)");
                }
                s.env = static_cast<std::uint8_t>(env);
                s.size = static_cast<std::uint8_t>(size);
                out.services.push_back(s);
            } else {
                return fail("unknown [tenants] directive '" + head + "'");
            }
        }
    }

    if (const campaign::SpecSection *script = file.section("script")) {
        for (const campaign::SpecLine &l : script->lines) {
            line_no = l.line_no;
            if (l.isKeyValue() || l.tokens.empty())
                return fail("expected '<kind> <target> <a> <b>' "
                            "in [script]");
            std::istringstream ls(l.raw);
            std::string token;
            ScenarioStep s;
            if (!(ls >> token >> s.target >> s.a >> s.b))
                return fail(
                    "bad step line (want: <kind> <target> <a> <b>)");
            if (!parseKind(token, s.kind))
                return fail("unknown step kind '" + token + "'");
            out.steps.push_back(s);
        }
    }

    if (const campaign::SpecSection *tt = file.section("timetravel")) {
        std::size_t digest_line = 0;
        bool saw_barrier = false, saw_steps = false, saw_digest = false;
        for (const campaign::SpecLine &l : tt->lines) {
            line_no = l.line_no;
            if (!l.isKeyValue())
                return fail("expected key = value in [timetravel]");
            std::istringstream ls(l.value);
            if (l.key == "barrier") {
                if (!(ls >> out.tt_barrier))
                    return fail("bad barrier");
                saw_barrier = true;
            } else if (l.key == "prefix_steps") {
                if (!(ls >> out.tt_prefix_steps))
                    return fail("bad prefix_steps");
                saw_steps = true;
            } else if (l.key == "prefix_digest") {
                if (!(ls >> std::hex >> out.tt_prefix_digest))
                    return fail("bad prefix_digest (want 16 hex digits)");
                digest_line = l.line_no;
                saw_digest = true;
            } else {
                return fail("unknown [timetravel] key '" + l.key + "'");
            }
        }
        line_no = tt->lines.empty() ? 0 : tt->lines.front().line_no;
        if (!saw_barrier || !saw_steps || !saw_digest)
            return fail("[timetravel] needs barrier, prefix_steps "
                        "and prefix_digest");
        out.has_timetravel = true;
        if (out.tt_prefix_steps > out.steps.size()) {
            std::ostringstream msg;
            msg << "prefix_steps " << out.tt_prefix_steps
                << " exceeds the " << out.steps.size()
                << "-step script";
            return fail(msg.str());
        }
        // The digest pins the snapshot image this suffix was shrunk
        // against. A replay whose prefix drifted (hand edit, stale
        // file) would silently prime a different image — reject it.
        const std::uint64_t want = timeTravelPrefixDigest(out);
        if (want != out.tt_prefix_digest) {
            line_no = digest_line;
            std::ostringstream msg;
            char a[32], b[32];
            std::snprintf(a, sizeof a, "%016llx",
                          static_cast<unsigned long long>(
                              out.tt_prefix_digest));
            std::snprintf(b, sizeof b, "%016llx",
                          static_cast<unsigned long long>(want));
            msg << "prefix digest mismatch: file says " << a
                << " but the replayed prefix hashes to " << b
                << " (the [timetravel] snapshot reference does not "
                   "cover this prefix)";
            return fail(msg.str());
        }
    }

    if (!validateScenario(out, error))
        return false;
    error.clear();
    return true;
}

Scenario
generateScenario(std::uint64_t base_seed, std::uint64_t index,
                 const GeneratorOptions &opts)
{
    sim::Rng rng = sim::Rng(base_seed).fork(index);

    Scenario sc;
    sc.seed = rng();
    if (sc.seed == 0)
        sc.seed = 1;

    // Platform shape. us-central1's preset is ~3500 hosts; every
    // profile gets a small-fleet override so a fuzz campaign clears
    // thousands of scenarios per minute. The shard structure survives:
    // 550 hosts is at least 5 shards on every profile, so shard pins
    // 0..4 are always valid and the sharded platform gets 5 lanes —
    // enough for the shard-equality oracle's {1, 2, 5} grouping arms
    // to partition differently.
    sc.profile = opts.allow_dynamic_profile
                     ? static_cast<std::uint8_t>(rng.uniformInt(3))
                     : static_cast<std::uint8_t>(rng.uniformInt(2) == 0 ? 0
                                                                        : 2);
    sc.host_count = 550;
    sc.isolate_accounts = rng.bernoulli(0.15);
    // Occasionally lower the hotness threshold so small bursts flip
    // services hot and exercise the helper-placement path.
    sc.hot_burst_min = rng.bernoulli(0.4)
                           ? static_cast<std::uint32_t>(rng.uniformInt(5, 40))
                           : 0;

    const auto n_accounts =
        static_cast<std::uint32_t>(rng.uniformInt(1, opts.max_accounts));
    for (std::uint32_t i = 0; i < n_accounts; ++i) {
        ScenarioAccount a;
        // Shard-pinned accounts dominate: pins spread the accounts
        // over distinct lanes, which is what makes the cross-lane
        // exchange (and its planted faults) observable.
        a.shard = rng.bernoulli(0.6)
                      ? static_cast<std::int32_t>(rng.uniformInt(5))
                      : -1;
        // Mix fresh capped accounts with established ones (§5.2 quota).
        const std::uint32_t quotas[4] = {4, 10, 60, 1000};
        a.quota = quotas[rng.uniformInt(4)];
        sc.accounts.push_back(a);
    }

    const auto n_services =
        static_cast<std::uint32_t>(rng.uniformInt(1, opts.max_services));
    for (std::uint32_t i = 0; i < n_services; ++i) {
        ScenarioService s;
        s.account = static_cast<std::uint32_t>(rng.uniformInt(n_accounts));
        s.env = opts.allow_gen2 && rng.bernoulli(0.35) ? 1 : 0;
        s.size = static_cast<std::uint8_t>(rng.uniformInt(4));
        sc.services.push_back(s);
    }

    const auto n_steps = static_cast<std::uint32_t>(
        rng.uniformInt(opts.min_steps, opts.max_steps));
    drawSteps(rng, n_accounts, n_services, n_steps, opts, sc.steps);
    return sc;
}

namespace {

/**
 * The weighted step-kind draw shared by generateScenario and
 * generateSuffixSteps: @p n_steps steps against a topology of
 * @p n_accounts x @p n_services, appended to @p out.
 */
void
drawSteps(sim::Rng &rng, std::uint32_t n_accounts, std::uint32_t n_services,
          std::uint32_t n_steps, const GeneratorOptions &opts,
          std::vector<ScenarioStep> &out)
{
    const auto svc = [&] {
        return static_cast<std::uint32_t>(rng.uniformInt(n_services));
    };
    for (std::uint32_t i = 0; i < n_steps; ++i) {
        ScenarioStep st;
        // Weighted kinds. Connect/advance/burst dominate because the
        // paper's placement behaviours (hotness, helper growth, reap)
        // are driven by launch surges and idle gaps.
        const std::uint64_t w = rng.uniformInt(100);
        if (w < 24) {
            st.kind = ScenarioStep::Kind::Connect;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(
                rng.uniformInt(1, opts.max_connect));
        } else if (w < 32) {
            st.kind = ScenarioStep::Kind::Disconnect;
            st.target = svc();
        } else if (w < 44) {
            st.kind = ScenarioStep::Kind::Route;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 2000)); // ms
        } else if (w < 56) {
            st.kind = ScenarioStep::Kind::Burst;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(
                rng.uniformInt(2, opts.max_burst));
            st.b = static_cast<std::uint32_t>(rng.uniformInt(1, 500)); // ms
            // Cross-shard burst pair: sometimes fire a second burst at
            // another service back-to-back, so services of accounts on
            // different shards (lanes) are active in the same exchange
            // window.
            if (n_services > 1 && rng.bernoulli(0.3)) {
                out.push_back(st);
                st.target = svc();
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(2, opts.max_burst));
                st.b = static_cast<std::uint32_t>(
                    rng.uniformInt(1, 500)); // ms
            }
        } else if (w < 76) {
            st.kind = ScenarioStep::Kind::Advance;
            // Idle-gap buckets chosen to straddle the reap window:
            // short gaps (< idle_hold = 2 min), gaps just around the
            // hold boundary, long gaps past idle_max = 15 min, and
            // exact multiples of the sharded platform's 30 s exchange
            // window, so subsequent steps land exactly on a barrier
            // (the window-boundary fault's bite point).
            const std::uint64_t bucket = rng.uniformInt(5);
            if (bucket == 0)
                st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 5'000));
            else if (bucket == 1)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(100'000, 140'000));
            else if (bucket == 2)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(5'000, opts.max_advance_ms));
            else if (bucket == 3)
                st.a = static_cast<std::uint32_t>(
                    rng.uniformInt(900'000, 1'100'000));
            else
                st.a = 30'000 * static_cast<std::uint32_t>(
                                    rng.uniformInt(1, 4));
        } else if (w < 80) {
            // Open-loop arrival stream: raw payloads, decoded by the
            // runner into the full ArrivalSpec (family, rate, span,
            // burstiness, churn) so admission backpressure and the
            // cold-start queue see fuzzed traffic in every oracle.
            st.kind = ScenarioStep::Kind::OpenLoop;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1u << 30));
            st.b = static_cast<std::uint32_t>(rng.uniformInt(1u << 30));
        } else if (w < 85) {
            st.kind = ScenarioStep::Kind::Restart;
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1u << 16));
        } else if (w < 89) {
            st.kind = ScenarioStep::Kind::SetConcurrency;
            st.target = svc();
            st.a = static_cast<std::uint32_t>(rng.uniformInt(1, 8));
        } else if (w < 93) {
            st.kind = ScenarioStep::Kind::SetQuota;
            st.target = static_cast<std::uint32_t>(rng.uniformInt(n_accounts));
            const std::uint32_t quotas[3] = {10, 120, 1000};
            st.a = quotas[rng.uniformInt(3)];
        } else if (w < 96) {
            st.kind = ScenarioStep::Kind::Redeploy;
            st.target = svc();
        } else {
            st.kind = ScenarioStep::Kind::SpendProbe;
        }
        out.push_back(st);
    }
}

/** Salt of the per-fork suffix stream (see generateSuffixSteps). */
constexpr std::uint64_t kSuffixForkSalt = 0x5F0BB000ULL;

} // namespace

std::uint64_t
timeTravelPrefixDigest(const Scenario &sc)
{
    Scenario prefix = sc;
    prefix.has_timetravel = false;
    prefix.tt_barrier = 0;
    prefix.tt_prefix_steps = 0;
    prefix.tt_prefix_digest = 0;
    if (prefix.steps.size() > sc.tt_prefix_steps)
        prefix.steps.resize(sc.tt_prefix_steps);
    const std::string text = prefix.serialize();
    return snap::fnv1a(reinterpret_cast<const std::uint8_t *>(text.data()),
                       text.size());
}

Scenario
composeTimeTravel(const Scenario &prefix, std::vector<ScenarioStep> suffix,
                  std::uint32_t barrier)
{
    Scenario sc = prefix;
    sc.has_timetravel = true;
    sc.tt_barrier = barrier;
    sc.tt_prefix_steps = static_cast<std::uint32_t>(prefix.steps.size());
    sc.steps.insert(sc.steps.end(), suffix.begin(), suffix.end());
    sc.tt_prefix_digest = timeTravelPrefixDigest(sc);
    return sc;
}

std::vector<ScenarioStep>
generateSuffixSteps(std::uint64_t base_seed, std::uint64_t index,
                    std::uint64_t fork, const Scenario &prefix,
                    std::uint32_t max_steps, const GeneratorOptions &opts)
{
    sim::Rng rng =
        sim::Rng(base_seed).fork(index).fork(kSuffixForkSalt + fork);
    std::vector<ScenarioStep> out;
    const auto n = static_cast<std::uint32_t>(
        rng.uniformInt(1, max_steps > 0 ? max_steps : 1));
    drawSteps(rng, static_cast<std::uint32_t>(prefix.accounts.size()),
              static_cast<std::uint32_t>(prefix.services.size()), n, opts,
              out);
    return out;
}

} // namespace eaao::testkit
