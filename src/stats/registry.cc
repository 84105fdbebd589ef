#include "stats/registry.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <string_view>

#include "sim/json.hh"
#include "sim/logging.hh"

namespace dsm {

namespace {

/** Key prefix of the per-node block. */
constexpr std::string_view NODE = "node";

/** Deepest path a row may have, in segments. */
constexpr std::size_t MAX_SEGMENTS = 8;

std::vector<std::string>
splitPath(const std::string &path)
{
    std::vector<std::string> parts;
    std::size_t start = 0;
    while (true) {
        std::size_t dot = path.find('.', start);
        if (dot == std::string::npos) {
            parts.push_back(path.substr(start));
            return parts;
        }
        parts.push_back(path.substr(start, dot - start));
        start = dot + 1;
    }
}

/**
 * Writes rows in path order as nested objects: consecutive rows that
 * share leading segments share the objects those segments open.
 */
class TreeWriter
{
  public:
    explicit TreeWriter(JsonWriter &w) : _w(w) {}

    /** Open the objects above the row at @p parts and write its key. */
    void
    key(const std::vector<std::string> &parts)
    {
        std::size_t common = 0;
        while (common < _depth && common + 1 < parts.size() &&
               *_open[common] == parts[common])
            ++common;
        close(common);
        for (; _depth + 1 < parts.size(); ++_depth) {
            _w.key(parts[_depth]);
            _w.beginObject();
            _open[_depth] = &parts[_depth];
        }
        _w.key(parts.back());
    }

    /** Close open objects down to @p depth. */
    void
    close(std::size_t depth = 0)
    {
        for (; _depth > depth; --_depth)
            _w.endObject();
    }

  private:
    JsonWriter &_w;
    std::array<const std::string *, MAX_SEGMENTS> _open{};
    std::size_t _depth = 0;
};

void
writeValue(JsonWriter &w, const StatRow &r, const void *obj, int node)
{
    if (r.hist) {
        const Histogram &h = *r.hist(obj, node, r.arg);
        Histogram::Percentiles p = h.percentiles();
        w.beginObject();
        w.kv("samples", h.samples());
        w.kv("mean", h.mean());
        w.kv("max", h.max());
        w.kv("p50", p.p50);
        w.kv("p95", p.p95);
        w.kv("p99", p.p99);
        w.kv("p999", p.p999);
        w.endObject();
    } else if (r.lat) {
        const LatencyStat &l = *r.lat(obj, node, r.arg);
        Histogram::Percentiles p = l.percentiles();
        w.beginObject();
        w.kv("count", l.count);
        w.kv("mean", l.mean());
        w.kv("max", static_cast<std::uint64_t>(l.max));
        w.kv("p50", p.p50);
        w.kv("p95", p.p95);
        w.kv("p99", p.p99);
        w.kv("p999", p.p999);
        w.endObject();
    } else {
        w.value(r.counter(obj, node, r.arg));
    }
}

void
addToSnapshot(StatsRegistry::Snapshot &snap, const std::string &path,
              const StatRow &r, const void *obj, int node)
{
    if (r.hist) {
        const Histogram &h = *r.hist(obj, node, r.arg);
        snap[path + ".samples"] = h.samples();
        snap[path + ".sum"] = h.sum();
    } else if (r.lat) {
        const LatencyStat &l = *r.lat(obj, node, r.arg);
        snap[path + ".count"] = l.count;
        snap[path + ".sum"] = l.sum;
    } else {
        snap[path] = r.counter(obj, node, r.arg);
    }
}

/**
 * Call @p f on every node index in [0, @p n) in the order of their
 * decimal strings: 0, 1, 10, 11, ..., 19, 2, 20, ...
 */
template <typename F>
void
forEachInDecimalOrder(int n, F f)
{
    if (n <= 0)
        return;
    f(0);
    // The rest is a preorder walk of the decimal digit trie over
    // [1, n - 1]: descend a digit while that stays in range, otherwise
    // step to the next sibling, climbing past exhausted subtrees.
    int last = n - 1;
    int cur = 1;
    for (int k = 1; k < n; ++k) {
        f(cur);
        if (cur * 10 <= last) {
            cur *= 10;
        } else {
            if (cur >= last)
                cur /= 10;
            ++cur;
            while (cur % 10 == 0)
                cur /= 10;
        }
    }
}

} // anonymous namespace

StatSchema::Table
StatSchema::sorted(std::vector<StatRow> rows)
{
    std::sort(rows.begin(), rows.end(),
              [](const StatRow &a, const StatRow &b) {
                  return a.path < b.path;
              });
    Table t;
    for (std::size_t i = 0; i < rows.size(); ++i) {
        const StatRow &r = rows[i];
        dsm_assert(i == 0 || rows[i - 1].path != r.path,
                   "duplicate stat path %s", r.path.c_str());
        int readers = (r.counter != nullptr) + (r.hist != nullptr) +
                      (r.lat != nullptr);
        dsm_assert(readers == 1, "stat %s needs exactly one reader",
                   r.path.c_str());
        t.parts.push_back(splitPath(r.path));
        dsm_assert(t.parts.back().size() <= MAX_SEGMENTS,
                   "stat path %s is too deep", r.path.c_str());
    }
    t.rows = std::move(rows);
    return t;
}

StatSchema::StatSchema(std::vector<StatRow> global,
                       std::vector<StatRow> per_node)
    : _global(sorted(std::move(global))), _node(sorted(std::move(per_node)))
{
    // The node block renders at a single position only if no global
    // path shares its "node" prefix.
    for (const StatRow &r : _global.rows)
        dsm_assert(r.path.compare(0, NODE.size(), NODE) != 0,
                   "global stat %s collides with the per-node block",
                   r.path.c_str());
    _node_pos = static_cast<std::size_t>(
        std::partition_point(_global.rows.begin(), _global.rows.end(),
                             [](const StatRow &r) { return r.path < NODE; }) -
        _global.rows.begin());
}

StatsRegistry::StatsRegistry(const StatSchema &schema, const void *obj,
                             int nodes)
    : _schema(&schema), _obj(obj), _nodes(nodes)
{
}

std::size_t
StatsRegistry::size() const
{
    std::size_t n = static_cast<std::size_t>(_nodes) *
                    _schema->_node.rows.size();
    for (const StatRow &r : _schema->_global.rows)
        n += on(r);
    return n;
}

StatsRegistry::Snapshot
StatsRegistry::snapshot() const
{
    Snapshot snap;
    for (const StatRow &r : _schema->_global.rows)
        if (on(r))
            addToSnapshot(snap, r.path, r, _obj, 0);
    for (int n = 0; n < _nodes; ++n) {
        std::string prefix = std::string(NODE) + std::to_string(n) + ".";
        for (const StatRow &r : _schema->_node.rows)
            addToSnapshot(snap, prefix + r.path, r, _obj, n);
    }
    return snap;
}

StatsRegistry::Snapshot
StatsRegistry::diff(const Snapshot &after, const Snapshot &before)
{
    Snapshot out;
    for (const auto &[path, v] : after) {
        auto it = before.find(path);
        std::uint64_t base = it == before.end() ? 0 : it->second;
        out[path] = v - base;
    }
    return out;
}

void
StatsRegistry::writeJson(JsonWriter &w) const
{
    const StatSchema::Table &global = _schema->_global;
    const StatSchema::Table &node = _schema->_node;
    TreeWriter tree(w);
    auto writeGlobal = [&](std::size_t begin, std::size_t end) {
        for (std::size_t i = begin; i < end; ++i) {
            if (!on(global.rows[i]))
                continue;
            tree.key(global.parts[i]);
            writeValue(w, global.rows[i], _obj, 0);
        }
    };

    w.beginObject();
    writeGlobal(0, _schema->_node_pos);
    tree.close();
    if (!node.rows.empty()) {
        forEachInDecimalOrder(_nodes, [&](int n) {
            char key[16];
            std::copy(NODE.begin(), NODE.end(), key);
            char *end =
                std::to_chars(key + NODE.size(), key + sizeof key, n).ptr;
            w.key(std::string_view(key, end - key));
            w.beginObject();
            TreeWriter sub(w);
            for (std::size_t j = 0; j < node.rows.size(); ++j) {
                sub.key(node.parts[j]);
                writeValue(w, node.rows[j], _obj, n);
            }
            sub.close();
            w.endObject();
        });
    }
    writeGlobal(_schema->_node_pos, global.rows.size());
    tree.close();
    w.endObject();
}

std::string
StatsRegistry::toJson() const
{
    JsonWriter w;
    writeJson(w);
    return w.str();
}

} // namespace dsm
