/**
 * @file
 * ControllerConfig spec grammar tests: the comma-separated key=value
 * run is the controller's single wire/journal/CLI representation, so
 * format -> parse must round-trip exactly and bad input must be
 * rejected with a named error, never half-applied.
 */

#include <gtest/gtest.h>

#include "control/config.hh"

namespace cmpqos
{
namespace
{

TEST(ControllerSpec, DisabledFormatsEmpty)
{
    ControllerConfig c;
    EXPECT_FALSE(c.enabled);
    EXPECT_EQ(formatControllerSpec(c), "");
}

TEST(ControllerSpec, EmptySpecParsesDisabled)
{
    ControllerConfig c;
    c.enabled = true; // must be overwritten
    std::string err;
    ASSERT_TRUE(parseControllerSpec("", c, err)) << err;
    EXPECT_FALSE(c.enabled);
}

TEST(ControllerSpec, OnOffShorthands)
{
    ControllerConfig c;
    std::string err;
    ASSERT_TRUE(parseControllerSpec("on", c, err)) << err;
    EXPECT_TRUE(c.enabled);
    ASSERT_TRUE(parseControllerSpec("off", c, err)) << err;
    EXPECT_FALSE(c.enabled);
}

TEST(ControllerSpec, FormatParseRoundTrip)
{
    ControllerConfig c;
    c.enabled = true;
    c.slackLow = 0.07;
    c.slackHigh = 0.33;
    c.dynamicSlo = false;
    c.sloSlowdown = 0.25;
    c.bandwidthStep = 10;
    c.minWindowInstructions = 75'000;
    c.staticPower = 0.375;
    c.dynCoeff = 1.5;
    c.powerCap = 6.25;

    const std::string spec = formatControllerSpec(c);
    ControllerConfig parsed;
    std::string err;
    ASSERT_TRUE(parseControllerSpec(spec, parsed, err)) << err;
    EXPECT_TRUE(parsed.enabled);
    EXPECT_EQ(parsed.slackLow, c.slackLow);
    EXPECT_EQ(parsed.slackHigh, c.slackHigh);
    EXPECT_EQ(parsed.dynamicSlo, c.dynamicSlo);
    EXPECT_EQ(parsed.sloSlowdown, c.sloSlowdown);
    EXPECT_EQ(parsed.bandwidthStep, c.bandwidthStep);
    EXPECT_EQ(parsed.minWindowInstructions, c.minWindowInstructions);
    EXPECT_EQ(parsed.staticPower, c.staticPower);
    EXPECT_EQ(parsed.dynCoeff, c.dynCoeff);
    EXPECT_EQ(parsed.powerCap, c.powerCap);
    // Canonical form is a fixed point of format(parse(format(x))).
    EXPECT_EQ(formatControllerSpec(parsed), spec);
}

TEST(ControllerSpec, NonEmptySpecImpliesEnabled)
{
    ControllerConfig c;
    std::string err;
    ASSERT_TRUE(parseControllerSpec("slack_low=0.1", c, err)) << err;
    EXPECT_TRUE(c.enabled);
    EXPECT_EQ(c.slackLow, 0.1);
    // ...unless on=0 says otherwise.
    ASSERT_TRUE(parseControllerSpec("on=0,slack_low=0.1", c, err))
        << err;
    EXPECT_FALSE(c.enabled);
}

TEST(ControllerSpec, RejectsUnknownKey)
{
    ControllerConfig c;
    std::string err;
    EXPECT_FALSE(parseControllerSpec("volts=9", c, err));
    EXPECT_NE(err.find("volts"), std::string::npos);
}

TEST(ControllerSpec, RejectsBadValues)
{
    ControllerConfig c;
    std::string err;
    EXPECT_FALSE(parseControllerSpec("slack_low=fast", c, err));
    EXPECT_FALSE(parseControllerSpec("bw_step=-1", c, err));
    EXPECT_FALSE(parseControllerSpec("min_window=", c, err));
    EXPECT_FALSE(parseControllerSpec("slack_low", c, err));
    EXPECT_FALSE(parseControllerSpec("slack_low=nan", c, err));
    EXPECT_FALSE(parseControllerSpec("p_static=-1", c, err));
    EXPECT_FALSE(parseControllerSpec("power_cap=inf", c, err));
    EXPECT_FALSE(parseControllerSpec("on=7", c, err));
    EXPECT_FALSE(parseControllerSpec("min_window=-1", c, err));
}

TEST(ControllerSpec, ExtremeDoublesRoundTripExactly)
{
    for (const double v : {5e-324, 1e-300, 0.1, 1.7976931348623157e308}) {
        ControllerConfig c;
        c.enabled = true;
        c.slackLow = v;
        c.slackHigh = v;
        c.sloSlowdown = v;
        c.staticPower = v;
        c.dynCoeff = v;
        c.powerCap = v;
        const std::string spec = formatControllerSpec(c);
        ControllerConfig back;
        std::string err;
        ASSERT_TRUE(parseControllerSpec(spec, back, err)) << spec << err;
        EXPECT_EQ(back.slackLow, v) << spec;
        EXPECT_EQ(back.slackHigh, v);
        EXPECT_EQ(back.sloSlowdown, v);
        EXPECT_EQ(back.staticPower, v);
        EXPECT_EQ(back.dynCoeff, v);
        EXPECT_EQ(back.powerCap, v);
        EXPECT_EQ(formatControllerSpec(back), spec);
    }
}

TEST(ControllerSpec, FailureLeavesConfigUntouched)
{
    ControllerConfig c;
    c.slackLow = 0.5;
    std::string err;
    EXPECT_FALSE(
        parseControllerSpec("slack_low=0.2,volts=9", c, err));
    EXPECT_EQ(c.slackLow, 0.5);
    EXPECT_FALSE(c.enabled);
}

} // namespace
} // namespace cmpqos
