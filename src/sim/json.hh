/**
 * @file
 * Minimal JSON support: a streaming emitter used by the stats registry,
 * the trace exporters, and the bench binaries' machine-readable output,
 * plus a small recursive-descent parser (JsonValue/parseJson) for tools
 * that read those documents back — most prominently bench_diff, the
 * cross-run perf-regression harness.
 */

#ifndef DSM_SIM_JSON_HH
#define DSM_SIM_JSON_HH

#include <cstdint>
#include <string>
#include <string_view>
#include <utility>
#include <vector>

namespace dsm {

/** Escape a string for inclusion inside JSON double quotes. */
std::string jsonEscape(std::string_view s);

/**
 * Streaming JSON writer. Call begin/end/key/value in document order;
 * separators and quoting are handled here. Misuse (a value where a key
 * is required) is a programming error and asserts. Numbers print with
 * std::to_chars: integers in decimal, doubles as printf's "%.10g"
 * would, and keys and strings are escaped straight into the document,
 * so rendering allocates nothing beyond the document itself.
 */
class JsonWriter
{
  public:
    void beginObject();
    void endObject();
    void beginArray();
    void endArray();

    /** Object member key; must be followed by exactly one value. */
    void key(std::string_view k);

    void value(const std::string &s);
    void value(const char *s);
    void value(double d);
    void value(std::uint64_t v);
    void value(std::int64_t v);
    void value(int v);
    void value(unsigned v);
    void value(bool b);

    /** Splice an already-rendered JSON fragment as one value. */
    void raw(const std::string &json);

    /** key() + value() in one call. */
    template <typename T>
    void
    kv(std::string_view k, T v)
    {
        key(k);
        value(v);
    }

    /** The document so far. */
    const std::string &str() const { return _out; }

  private:
    /** Emit a separator before a new element if one is needed. */
    void element();

    std::string _out;
    std::vector<bool> _first; ///< per open container: no elements yet
    bool _have_key = false;
};

/**
 * Parsed JSON value. Numbers are held as doubles, which is exact for
 * every counter the consumers compare (all < 2^53). Object member
 * order is preserved.
 */
struct JsonValue
{
    enum class Kind { NUL, BOOL, NUMBER, STRING, ARRAY, OBJECT };

    Kind kind = Kind::NUL;
    bool boolean = false;
    double number = 0.0;
    std::string string;
    std::vector<JsonValue> array;
    std::vector<std::pair<std::string, JsonValue>> object;

    bool isObject() const { return kind == Kind::OBJECT; }
    bool isArray() const { return kind == Kind::ARRAY; }
    bool isNumber() const { return kind == Kind::NUMBER; }
    bool isString() const { return kind == Kind::STRING; }

    /** Object member lookup; nullptr if absent or not an object. */
    const JsonValue *find(const std::string &key) const;

    bool has(const std::string &key) const { return find(key) != nullptr; }

    /** Member's numeric value, or @p fallback if absent/non-numeric. */
    double num(const std::string &key, double fallback = -1.0) const;

    /** Member's string value, or "" if absent/non-string. */
    std::string str(const std::string &key) const;
};

/**
 * Parse @p text into @p out. On failure returns false and leaves a
 * human-readable message (with byte offset) in @p err when non-null.
 */
bool parseJson(const std::string &text, JsonValue *out, std::string *err);

} // namespace dsm

#endif // DSM_SIM_JSON_HH
