/**
 * @file
 * The one bench-report writer. A bench builds its JSON report key by
 * key and records named checks on the same values; finish() writes
 * the file, prints each failed check by name and returns the bench's
 * exit code: 0 every check passed, 1 a check failed, 2 the file could
 * not be written. The report's shape is checked separately against
 * its schema (`tools/schema_check.py REPORT SCHEMA`).
 *
 * Output is pretty-printed, one member per line, doubles at the
 * stream's default six significant digits.
 */

#ifndef PIFT_BENCH_REPORT_HH
#define PIFT_BENCH_REPORT_HH

#include <cstddef>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string>
#include <type_traits>
#include <vector>

#include "telemetry/export.hh"

namespace pift::benchx
{

class Report
{
  public:
    /** Start the document with its `"bench": @p bench` member. */
    explicit Report(const std::string &bench)
    {
        open('{');
        field("bench", bench);
    }

    /**
     * Members in order, as key/value pairs:
     * field("jobs", 4, "speedup", 2.5, "name", name). Values are
     * bools, integers, doubles or strings (escaped).
     */
    template <typename V, typename... Rest>
    void
    field(const std::string &key, const V &v, const Rest &...rest)
    {
        member(key);
        value(v);
        if constexpr (sizeof...(rest) > 0)
            field(rest...);
    }

    /** Member @p key holding an object whose fields @p fill writes. */
    template <typename Fn>
    void
    object(const std::string &key, Fn &&fill)
    {
        member(key);
        open('{');
        fill();
        close('}');
    }

    /**
     * Member @p key holding an array of @p n objects; @p fill(i)
     * writes the fields of object i.
     */
    template <typename Fn>
    void
    array(const std::string &key, size_t n, Fn &&fill)
    {
        member(key);
        open('[');
        for (size_t i = 0; i < n; ++i) {
            separate();
            open('{');
            fill(i);
            close('}');
        }
        close(']');
    }

    /** Record check @p name; finish() fails the bench unless @p ok. */
    void
    check(const std::string &name, bool ok)
    {
        ++checks;
        if (!ok)
            failed.push_back(name);
    }

    /**
     * Close the document, write it to @p path and report the checks.
     * @return 0 pass, 1 a failed check, 2 the file could not be
     *         written
     */
    int
    finish(const std::string &path)
    {
        close('}');
        os << '\n';
        std::ofstream file(path, std::ios::binary | std::ios::trunc);
        file << os.str();
        file.flush();
        const bool written = static_cast<bool>(file);
        if (written)
            std::printf("wrote %s\n", path.c_str());
        else
            std::fprintf(stderr, "cannot write '%s'\n", path.c_str());
        for (const std::string &name : failed)
            std::fprintf(stderr, "FAILED check: %s\n", name.c_str());
        std::printf("checks: %zu of %zu passed\n",
                    checks - failed.size(), checks);
        if (!written)
            return 2;
        return failed.empty() ? 0 : 1;
    }

  private:
    void value(bool v) { os << (v ? "true" : "false"); }
    void value(double v) { os << v; }
    void value(const char *v) { value(std::string(v)); }

    void
    value(const std::string &v)
    {
        os << '"' << telemetry::jsonEscape(v) << '"';
    }

    template <typename T,
              std::enable_if_t<std::is_integral_v<T>, int> = 0>
    void
    value(T v)
    {
        os << v;
    }

    void
    separate()
    {
        if (!first.back())
            os << ',';
        first.back() = false;
        os << '\n' << std::string(2 * first.size(), ' ');
    }

    void
    member(const std::string &key)
    {
        separate();
        os << '"' << telemetry::jsonEscape(key) << "\": ";
    }

    void
    open(char bracket)
    {
        os << bracket;
        first.push_back(true);
    }

    void
    close(char bracket)
    {
        const bool empty = first.back();
        first.pop_back();
        if (!empty)
            os << '\n' << std::string(2 * first.size(), ' ');
        os << bracket;
    }

    std::ostringstream os;
    std::vector<bool> first; //!< per open container: no member yet
    size_t checks = 0;
    std::vector<std::string> failed;
};

} // namespace pift::benchx

#endif // PIFT_BENCH_REPORT_HH
