/**
 * @file
 * The bench-report writer (bench/report.hh): escaping, nesting, and
 * the exit codes finish() hands back to its bench.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "bench/report.hh"

using pift::benchx::Report;

namespace
{

std::string
readFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream ss;
    ss << in.rdbuf();
    return ss.str();
}

std::string
tempPath(const char *name)
{
    return ::testing::TempDir() + "/" + name;
}

} // namespace

TEST(BenchReport, EscapesStringsThroughJsonEscape)
{
    // App and fault-class names reach the report through field().
    Report rep("quote\"back\\slash");
    rep.field("name", std::string("tab\there\nnewline\x01"));
    rep.field("literal", "plain");
    const std::string path = tempPath("report_escape.json");
    ASSERT_EQ(rep.finish(path), 0);
    EXPECT_EQ(readFile(path),
              "{\n"
              "  \"bench\": \"quote\\\"back\\\\slash\",\n"
              "  \"name\": \"tab\\there\\nnewline\\u0001\",\n"
              "  \"literal\": \"plain\"\n"
              "}\n");
}

TEST(BenchReport, WritesNestedObjectsAndArraysOfObjects)
{
    const std::vector<unsigned> jobs = {1, 4};
    Report rep("nest");
    rep.field("flag", true);
    rep.field("count", uint64_t{18446744073709551615ull});
    rep.field("ratio", 2.5);
    rep.object("outer", [&] {
        rep.field("neg", -3);
        rep.object("inner", [&] { rep.field("off", false); });
        rep.object("empty", [] {});
    });
    rep.array("runs", jobs.size(), [&](size_t i) {
        rep.field("jobs", jobs[i]);
        rep.field("speedup", 1.0 / 3.0);
        // An array inside an array element, as a histogram's buckets.
        const size_t n = 2 * i;
        rep.array("buckets", n, [&](size_t b) {
            if (b + 1 == n)
                rep.field("le", "+inf");
            else
                rep.field("le", b);
        });
    });
    rep.array("none", 0, [](size_t) {});
    const std::string path = tempPath("report_nest.json");
    ASSERT_EQ(rep.finish(path), 0);
    EXPECT_EQ(readFile(path),
              "{\n"
              "  \"bench\": \"nest\",\n"
              "  \"flag\": true,\n"
              "  \"count\": 18446744073709551615,\n"
              "  \"ratio\": 2.5,\n"
              "  \"outer\": {\n"
              "    \"neg\": -3,\n"
              "    \"inner\": {\n"
              "      \"off\": false\n"
              "    },\n"
              "    \"empty\": {}\n"
              "  },\n"
              "  \"runs\": [\n"
              "    {\n"
              "      \"jobs\": 1,\n"
              "      \"speedup\": 0.333333,\n"
              "      \"buckets\": []\n"
              "    },\n"
              "    {\n"
              "      \"jobs\": 4,\n"
              "      \"speedup\": 0.333333,\n"
              "      \"buckets\": [\n"
              "        {\n"
              "          \"le\": 0\n"
              "        },\n"
              "        {\n"
              "          \"le\": \"+inf\"\n"
              "        }\n"
              "      ]\n"
              "    }\n"
              "  ],\n"
              "  \"none\": []\n"
              "}\n");
}

TEST(BenchReport, FailedCheckExitsOneAndNamesIt)
{
    Report rep("checks");
    rep.field("fn", 3);
    rep.check("explicit.fn == 2", false);
    rep.check("implicit.fp == 0", true);
    const std::string path = tempPath("report_failed.json");
    ::testing::internal::CaptureStderr();
    const int code = rep.finish(path);
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 1);
    EXPECT_NE(err.find("FAILED check: explicit.fn == 2"),
              std::string::npos)
        << err;
    EXPECT_EQ(err.find("implicit.fp == 0"), std::string::npos) << err;
    // The report is written even when a check fails.
    EXPECT_NE(readFile(path).find("\"fn\": 3"), std::string::npos);
}

TEST(BenchReport, UnwritablePathExitsTwo)
{
    Report rep("unwritable");
    rep.check("passes", true);
    ::testing::internal::CaptureStderr();
    const int code =
        rep.finish(tempPath("no_such_dir/deeper/report.json"));
    const std::string err = ::testing::internal::GetCapturedStderr();
    EXPECT_EQ(code, 2);
    EXPECT_NE(err.find("cannot write"), std::string::npos) << err;
}
