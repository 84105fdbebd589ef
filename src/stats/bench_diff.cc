#include "stats/bench_diff.hh"

#include <algorithm>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

/** Row identity: every string-valued field, in order. */
std::string
rowLabel(const JsonValue &row, int index)
{
    std::string label;
    for (const auto &[k, v] : row.object) {
        if (!v.isString())
            continue;
        if (!label.empty())
            label += ' ';
        label += k + '=' + v.string;
    }
    if (label.empty())
        label = csprintf("row %d", index);
    return label;
}

/**
 * Exact comparison of one result value at field path @p path. Numbers
 * that differ at all are findings; objects (fields matched by position,
 * so a key repeated within a row is compared occurrence by occurrence)
 * and arrays recurse with a dotted/indexed path; a changed string, bool
 * or null, a changed type and a field added or dropped are errors.
 */
void
compareValue(const std::string &bench, const std::string &label,
             const std::string &path, const JsonValue &b,
             const JsonValue &c, DiffResult &res)
{
    auto error = [&](const std::string &what) {
        res.errors.push_back(bench + " [" + label + "]: " + what);
    };
    if (b.kind != c.kind) {
        error("metric " + path + " changed type");
        return;
    }
    switch (b.kind) {
      case JsonValue::Kind::NUMBER: {
        ++res.metrics_compared;
        if (b.number == c.number)
            return;
        DiffFinding f;
        f.bench = bench;
        f.row = label;
        f.metric = path;
        f.base = b.number;
        f.cand = c.number;
        double diff = c.number - b.number;
        f.change_pct = b.number != 0.0 ? 100.0 * diff / b.number
                                        : (diff > 0 ? 100.0 : -100.0);
        res.regressions.push_back(std::move(f));
        return;
      }
      case JsonValue::Kind::OBJECT: {
        std::string prefix = path.empty() ? "" : path + ".";
        std::size_t n = std::min(b.object.size(), c.object.size());
        for (std::size_t i = 0; i < n; ++i) {
            const std::string &key = b.object[i].first;
            if (key != c.object[i].first) {
                error("metric " + prefix + key + " replaced by " +
                      prefix + c.object[i].first + " in the candidate");
                return;
            }
            compareValue(bench, label, prefix + key, b.object[i].second,
                         c.object[i].second, res);
        }
        if (b.object.size() > n)
            error("metric " + prefix + b.object[n].first +
                  " missing from candidate");
        else if (c.object.size() > n)
            error("metric " + prefix + c.object[n].first +
                  " is new in the candidate");
        return;
      }
      case JsonValue::Kind::ARRAY:
        if (b.array.size() != c.array.size()) {
            error("metric " + path + " changed length");
            return;
        }
        for (std::size_t i = 0; i < b.array.size(); ++i)
            compareValue(bench, label, csprintf("%s[%zu]", path.c_str(), i),
                         b.array[i], c.array[i], res);
        return;
      default:
        if (b.string != c.string || b.boolean != c.boolean)
            error("metric " + path + " changed value");
        return;
    }
}

} // anonymous namespace

void
DiffResult::merge(const DiffResult &other)
{
    regressions.insert(regressions.end(), other.regressions.begin(),
                       other.regressions.end());
    errors.insert(errors.end(), other.errors.begin(),
                  other.errors.end());
    rows_compared += other.rows_compared;
    metrics_compared += other.metrics_compared;
}

DiffResult
diffBenchReports(const JsonValue &base, const JsonValue &cand)
{
    DiffResult res;
    if (base.str("schema") != "dsm-bench-v1" ||
        cand.str("schema") != "dsm-bench-v1") {
        res.errors.push_back("not a dsm-bench-v1 report");
        return res;
    }
    std::string bench = base.str("bench");
    if (cand.str("bench") != bench) {
        res.errors.push_back("bench name mismatch: baseline \"" + bench +
                             "\" vs candidate \"" + cand.str("bench") +
                             "\"");
        return res;
    }
    const JsonValue *brows = base.find("results");
    const JsonValue *crows = cand.find("results");
    if (brows == nullptr || !brows->isArray() || crows == nullptr ||
        !crows->isArray()) {
        res.errors.push_back(bench + ": missing results array");
        return res;
    }
    if (brows->array.size() != crows->array.size()) {
        res.errors.push_back(csprintf(
            "%s: row count changed %zu -> %zu", bench.c_str(),
            brows->array.size(), crows->array.size()));
        return res;
    }

    for (std::size_t i = 0; i < brows->array.size(); ++i) {
        const JsonValue &br = brows->array[i];
        const JsonValue &cr = crows->array[i];
        if (!br.isObject() || !cr.isObject()) {
            res.errors.push_back(
                csprintf("%s: row %zu is not an object", bench.c_str(), i));
            continue;
        }
        std::string label = rowLabel(br, static_cast<int>(i));
        // Identifying string fields must agree, or the sweep shape
        // changed and per-metric comparison would be meaningless.
        if (rowLabel(cr, static_cast<int>(i)) != label) {
            res.errors.push_back(
                bench + ": row identity changed: baseline [" + label +
                "] vs candidate [" +
                rowLabel(cr, static_cast<int>(i)) + "]");
            continue;
        }
        ++res.rows_compared;
        compareValue(bench, label, "", br, cr, res);
    }
    return res;
}

namespace {

bool
loadJsonFile(const std::string &path, JsonValue *out, std::string *err)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        *err = "cannot open " + path;
        return false;
    }
    std::ostringstream text;
    text << in.rdbuf();
    std::string perr;
    if (!parseJson(text.str(), out, &perr)) {
        *err = path + ": " + perr;
        return false;
    }
    return true;
}

} // anonymous namespace

DiffResult
diffBenchFiles(const std::string &base_path, const std::string &cand_path)
{
    DiffResult res;
    JsonValue base, cand;
    std::string err;
    if (!loadJsonFile(base_path, &base, &err) ||
        !loadJsonFile(cand_path, &cand, &err)) {
        res.errors.push_back(err);
        return res;
    }
    return diffBenchReports(base, cand);
}

DiffResult
diffBenchDirs(const std::string &base_dir, const std::string &cand_dir)
{
    namespace fs = std::filesystem;
    DiffResult res;
    std::vector<std::string> names;
    std::error_code ec;
    for (const fs::directory_entry &e :
         fs::directory_iterator(base_dir, ec)) {
        std::string n = e.path().filename().string();
        if (n.rfind("BENCH_", 0) == 0 && n.size() > 5 &&
            n.substr(n.size() - 5) == ".json")
            names.push_back(n);
    }
    if (ec) {
        res.errors.push_back("cannot read directory " + base_dir + ": " +
                             ec.message());
        return res;
    }
    if (names.empty()) {
        res.errors.push_back("no BENCH_*.json files in " + base_dir);
        return res;
    }
    std::sort(names.begin(), names.end());
    for (const std::string &n : names) {
        std::string cand_path = cand_dir + "/" + n;
        if (!fs::exists(cand_path)) {
            res.errors.push_back("baseline " + n +
                                 " has no candidate counterpart in " +
                                 cand_dir);
            continue;
        }
        res.merge(diffBenchFiles(base_dir + "/" + n, cand_path));
    }
    return res;
}

std::string
renderDiff(const DiffResult &r)
{
    std::string out;
    for (const std::string &e : r.errors)
        out += "ERROR: " + e + "\n";
    for (const DiffFinding &f : r.regressions)
        out += csprintf("REGRESSION %s [%s] %s: %.10g -> %.10g (%+.3g%%)\n",
                        f.bench.c_str(), f.row.c_str(), f.metric.c_str(),
                        f.base, f.cand, f.change_pct);
    out += csprintf("%d rows, %d metrics compared: %zu regression(s), "
                    "%zu error(s)\n",
                    r.rows_compared, r.metrics_compared,
                    r.regressions.size(), r.errors.size());
    return out;
}

} // namespace dsm
