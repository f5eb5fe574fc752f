/**
 * @file
 * Tests for the epoch-configuration directive grammar shared by qosd
 * flags, live Reconfig messages and the journal header.
 */

#include <gtest/gtest.h>

#include <functional>
#include <sstream>
#include <vector>

#include "service/epoch_config.hh"

namespace cmpqos
{
namespace
{

/** Every key at its default and at one other value, each crossed with
 *  negotiate, check-invariants and the controller on and off. */
std::vector<EpochConfig>
configGrid()
{
    const std::vector<std::function<void(EpochConfig &)>> one = {
        [](EpochConfig &) {},
        [](EpochConfig &c) { c.nodes = 13; },
        [](EpochConfig &c) { c.quantum = 750'000; },
        [](EpochConfig &c) { c.seed = 18446744073709551615ULL; },
        [](EpochConfig &c) { c.policy = GacPolicy::EarliestSlot; },
        [](EpochConfig &c) { c.elasticX = 1.0 / 3.0; },
        [](EpochConfig &c) { c.arrivalGap = 1; },
        [](EpochConfig &c) { c.instructions = 1ULL << 40; },
        [](EpochConfig &c) {
            c.control.slackLow = 5e-324;
            c.control.dynamicSlo = false;
            c.control.bandwidthStep = 100;
            c.control.powerCap = 1.7976931348623157e308;
        },
    };
    std::vector<EpochConfig> grid;
    for (const auto &set : one)
        for (const bool negotiate : {false, true})
            for (const bool check : {false, true})
                for (const bool control : {false, true}) {
                    EpochConfig c;
                    set(c);
                    c.negotiate = negotiate;
                    c.checkInvariants = check;
                    c.control.enabled = control;
                    grid.push_back(c);
                }
    return grid;
}

TEST(EpochConfig, SingleDirectivesApply)
{
    EpochConfig c;
    std::string err;
    EXPECT_TRUE(applyEpochDirective(c, "nodes", "16", err)) << err;
    EXPECT_EQ(c.nodes, 16);
    EXPECT_TRUE(applyEpochDirective(c, "quantum", "1000000", err));
    EXPECT_EQ(c.quantum, 1'000'000u);
    EXPECT_TRUE(applyEpochDirective(c, "seed", "42", err));
    EXPECT_EQ(c.seed, 42u);
    EXPECT_TRUE(applyEpochDirective(c, "policy", "first-fit", err));
    EXPECT_EQ(c.policy, GacPolicy::FirstFit);
    EXPECT_TRUE(applyEpochDirective(c, "negotiate", "0", err));
    EXPECT_FALSE(c.negotiate);
    EXPECT_TRUE(applyEpochDirective(c, "elastic-x", "0.25", err));
    EXPECT_DOUBLE_EQ(c.elasticX, 0.25);
    EXPECT_TRUE(applyEpochDirective(c, "arrival-gap", "125000", err));
    EXPECT_EQ(c.arrivalGap, 125'000u);
    EXPECT_TRUE(applyEpochDirective(c, "instructions", "500000", err));
    EXPECT_EQ(c.instructions, 500'000u);
    EXPECT_TRUE(applyEpochDirective(c, "check-invariants", "off", err));
    EXPECT_FALSE(c.checkInvariants);
}

TEST(EpochConfig, BadValuesAreNamedAndLeaveConfigUntouched)
{
    const EpochConfig before;
    struct Case
    {
        const char *key;
        const char *value;
    };
    const Case cases[] = {
        {"nodes", "0"},          {"nodes", "4097"},
        {"nodes", "eight"},      {"quantum", "0"},
        {"quantum", "-5"},       {"seed", "0x10"},
        {"policy", "random"},    {"negotiate", "maybe"},
        {"elastic-x", "1.5"},    {"elastic-x", "-0.1"},
        {"elastic-x", "lots"},   {"arrival-gap", "0"},
        {"instructions", "0"},   {"check-invariants", "2"},
        {"instructions", "1099511627777"},
        {"no-such-key", "1"},
        {"elastic-x", "nan"},    {"elastic-x", "inf"},
        {"nodes", "16x"},
    };
    for (const Case &k : cases) {
        EpochConfig c = before;
        std::string err;
        EXPECT_FALSE(applyEpochDirective(c, k.key, k.value, err))
            << k.key << "=" << k.value;
        EXPECT_NE(err.find(k.key), std::string::npos)
            << "error should name the directive: " << err;
        EXPECT_EQ(formatEpochConfig(c), formatEpochConfig(before))
            << "failed directive must not mutate the config";
    }
}

TEST(EpochConfig, DirectiveRunsAreAllOrNothing)
{
    EpochConfig c;
    const std::string before = formatEpochConfig(c);
    std::string err;
    // Second directive is bad: the valid first one must not stick.
    EXPECT_FALSE(
        applyEpochDirectives(c, "nodes=4 quantum=zero", err));
    EXPECT_EQ(formatEpochConfig(c), before);
    EXPECT_FALSE(applyEpochDirectives(c, "nodes", err));
    EXPECT_FALSE(applyEpochDirectives(c, "=4", err));
    EXPECT_FALSE(applyEpochDirectives(c, "", err));
    EXPECT_FALSE(applyEpochDirectives(c, "   \t ", err));
    EXPECT_EQ(formatEpochConfig(c), before);

    EXPECT_TRUE(applyEpochDirectives(
        c, "  nodes=4\t quantum=1000000  seed=9 ", err))
        << err;
    EXPECT_EQ(c.nodes, 4);
    EXPECT_EQ(c.quantum, 1'000'000u);
    EXPECT_EQ(c.seed, 9u);
}

TEST(EpochConfig, FormatRoundTrips)
{
    EpochConfig c;
    std::string err;
    ASSERT_TRUE(applyEpochDirectives(
        c,
        "nodes=6 quantum=750000 seed=1234 policy=earliest-slot "
        "negotiate=0 elastic-x=0.125 arrival-gap=10000 "
        "instructions=321000 check-invariants=1",
        err))
        << err;
    const std::string text = formatEpochConfig(c);
    EpochConfig back;
    ASSERT_TRUE(applyEpochDirectives(back, text, err)) << err;
    EXPECT_EQ(formatEpochConfig(back), text);
}

TEST(EpochConfig, EpochMixCarriesElasticBudgetAndInstructions)
{
    EpochConfig c;
    c.elasticX = 0.33;
    c.instructions = 777'000;
    const ArrivalMix mix = epochMix(c);
    EXPECT_EQ(mix.instructions, 777'000u);
    const TierSpec &silver =
        mix.tiers[static_cast<std::size_t>(QosTier::Silver)];
    EXPECT_EQ(silver.mode.mode, ExecutionMode::Elastic);
    EXPECT_DOUBLE_EQ(silver.mode.slack, 0.33);
}

TEST(EpochConfig, ClusterConfigMirrorsEpochButNotThreads)
{
    EpochConfig c;
    c.nodes = 12;
    c.quantum = 900'000;
    c.seed = 5;
    c.policy = GacPolicy::FirstFit;
    c.negotiate = false;
    c.checkInvariants = true;
    const ClusterConfig a = epochClusterConfig(c, 1);
    const ClusterConfig b = epochClusterConfig(c, 4);
    EXPECT_EQ(a.nodes, 12);
    EXPECT_EQ(a.quantum, 900'000u);
    EXPECT_EQ(a.seed, 5u);
    EXPECT_EQ(a.policy, GacPolicy::FirstFit);
    EXPECT_FALSE(a.negotiate);
    EXPECT_TRUE(a.checkInvariants);
    EXPECT_EQ(a.threads, 1u);
    EXPECT_EQ(b.threads, 4u);
}

TEST(EpochConfig, ReplayCommandNamesEveryDeterminant)
{
    EpochConfig c;
    c.negotiate = false;
    c.checkInvariants = true;
    const std::string cmd = replayCommand(c, "journal/epoch-0000.trace");
    EXPECT_NE(cmd.find("cluster_driver --trace journal/epoch-0000.trace"),
              std::string::npos)
        << cmd;
    EXPECT_NE(cmd.find("--nodes 8"), std::string::npos);
    EXPECT_NE(cmd.find("--quantum 2000000"), std::string::npos);
    EXPECT_NE(cmd.find("--seed 1"), std::string::npos);
    EXPECT_NE(cmd.find("--policy least-loaded"), std::string::npos);
    EXPECT_NE(cmd.find("--no-negotiate"), std::string::npos);
    EXPECT_NE(cmd.find("--elastic-x"), std::string::npos);
    EXPECT_NE(cmd.find("--instructions 2000000"), std::string::npos);
    EXPECT_NE(cmd.find("--check-invariants"), std::string::npos);
    EXPECT_NE(cmd.find("--fingerprint"), std::string::npos);

    c.negotiate = true;
    c.checkInvariants = false;
    const std::string cmd2 = replayCommand(c, "j.trace");
    EXPECT_EQ(cmd2.find("--no-negotiate"), std::string::npos);
    EXPECT_EQ(cmd2.find("--check-invariants"), std::string::npos);
}

TEST(EpochConfig, ControlDirectiveRoundTrips)
{
    EpochConfig c;
    std::string err;
    // The comma-separated spec is one whitespace-free token, so it
    // survives the directive grammar's split-on-whitespace and the
    // split-on-first-'=' (the value itself contains '=').
    ASSERT_TRUE(applyEpochDirectives(
        c, "control=slack_low=0.1,power_cap=4.5", err))
        << err;
    EXPECT_TRUE(c.control.enabled);
    EXPECT_EQ(c.control.slackLow, 0.1);
    EXPECT_EQ(c.control.powerCap, 4.5);

    // The formatted config re-parses to the same controller state.
    const std::string text = formatEpochConfig(c);
    EXPECT_NE(text.find("control="), std::string::npos) << text;
    EpochConfig back;
    ASSERT_TRUE(applyEpochDirectives(back, text, err)) << err;
    EXPECT_EQ(formatEpochConfig(back), text);
    EXPECT_EQ(back.control.powerCap, 4.5);

    // Controller-off configs format exactly as before the control
    // layer existed (journal headers stay byte-stable).
    EXPECT_EQ(formatEpochConfig(EpochConfig{}).find("control"),
              std::string::npos);

    // Bad specs are rejected all-or-nothing with a named error.
    EpochConfig untouched;
    EXPECT_FALSE(
        applyEpochDirectives(untouched, "control=volts=9", err));
    EXPECT_FALSE(untouched.control.enabled);

    // The replay command ships the spec; the cluster config takes it.
    const std::string cmd = replayCommand(c, "j.trace");
    EXPECT_NE(cmd.find("--control on=1,slack_low=0.1"),
              std::string::npos)
        << cmd;
    const ClusterConfig cluster = epochClusterConfig(c, 2);
    EXPECT_TRUE(cluster.control.enabled);
    EXPECT_EQ(cluster.control.powerCap, 4.5);
}

TEST(EpochConfig, ReplayCommandReadsBackThroughTheFlagReader)
{
    for (const EpochConfig &c : configGrid()) {
        const std::string cmd = replayCommand(c, "j.trace");
        std::istringstream words(cmd);
        std::vector<std::string> argv_words;
        for (std::string w; words >> w;)
            if (w != "--trace" && w != "j.trace" && w != "--fingerprint")
                argv_words.push_back(w);
        std::vector<const char *> argv;
        for (const std::string &w : argv_words)
            argv.push_back(w.c_str());

        EpochConfig back = driverEpochDefaults();
        const int argc = static_cast<int>(argv.size());
        for (int i = 1; i < argc; ++i) {
            std::string err;
            EXPECT_TRUE(readEpochFlag(back, /*replayed_only=*/true, argc,
                                      argv.data(), i, err))
                << argv[i] << " in " << cmd;
            EXPECT_EQ(err, "") << cmd;
        }
        // arrival-gap never reaches a replay: the journal carries the
        // arrival times themselves.
        back.arrivalGap = c.arrivalGap;
        EXPECT_EQ(formatEpochConfig(back), formatEpochConfig(c)) << cmd;
    }
}

TEST(EpochConfig, FlagReaderNamesBadFlagsAndLeavesOthersAlone)
{
    // True when argv[1] is an epoch flag; @p err is set when it is bad.
    const auto read = [](bool replayed_only,
                         std::vector<const char *> argv, EpochConfig &c,
                         std::string &err) {
        int i = 1;
        err.clear();
        return readEpochFlag(c, replayed_only,
                             static_cast<int>(argv.size()), argv.data(), i,
                             err);
    };
    EpochConfig c = driverEpochDefaults();
    const std::string before = formatEpochConfig(c);
    std::string err;
    EXPECT_FALSE(read(true, {"t", "--jobs", "4"}, c, err));
    EXPECT_FALSE(read(true, {"t", "--no-nodes"}, c, err));
    EXPECT_FALSE(read(true, {"t", "nodes", "4"}, c, err));
    // arrival-gap is qosd's alone: a replay never uses it.
    EXPECT_FALSE(read(true, {"t", "--arrival-gap", "9"}, c, err));
    for (const std::vector<const char *> &bad :
         std::vector<std::vector<const char *>>{
             {"t", "--nodes"},
             {"t", "--nodes", "0"},
             {"t", "--elastic-x", "nan"},
             {"t", "--control", "on=7"}}) {
        EXPECT_TRUE(read(false, bad, c, err));
        EXPECT_NE(err.find(bad[1]), std::string::npos) << err;
        EXPECT_EQ(formatEpochConfig(c), before);
    }

    EXPECT_TRUE(read(false, {"t", "--arrival-gap", "9"}, c, err));
    EXPECT_EQ(err, "");
    EXPECT_EQ(c.arrivalGap, 9u);
    EXPECT_TRUE(read(false, {"t", "--no-negotiate"}, c, err));
    EXPECT_FALSE(c.negotiate);
    EXPECT_TRUE(read(false, {"t", "--negotiate"}, c, err));
    EXPECT_TRUE(c.negotiate);
    EXPECT_TRUE(read(false, {"t", "--control", "on"}, c, err));
    EXPECT_TRUE(c.control.enabled);
}

} // namespace
} // namespace cmpqos
