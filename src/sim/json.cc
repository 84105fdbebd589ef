#include "sim/json.hh"

#include <algorithm>
#include <cctype>
#include <charconv>
#include <cmath>
#include <cstdlib>

#include "sim/logging.hh"

namespace dsm {

namespace {

/** Append @p s to @p out with JSON string escaping. */
void
appendEscaped(std::string &out, std::string_view s)
{
    auto plain = [](char c) {
        return c != '"' && c != '\\' && static_cast<unsigned char>(c) >= 0x20;
    };
    if (std::all_of(s.begin(), s.end(), plain)) {
        out.append(s);
        return;
    }
    for (char c : s) {
        switch (c) {
          case '"': out += "\\\""; break;
          case '\\': out += "\\\\"; break;
          case '\n': out += "\\n"; break;
          case '\r': out += "\\r"; break;
          case '\t': out += "\\t"; break;
          default:
            if (static_cast<unsigned char>(c) < 0x20)
                out += csprintf("\\u%04x", c);
            else
                out += c;
        }
    }
}

/** Append the decimal or "%.10g" rendering of @p v to @p out. */
template <typename... Fmt>
void
appendNumber(std::string &out, auto v, Fmt... fmt)
{
    char buf[32];
    std::to_chars_result r = std::to_chars(buf, buf + sizeof buf, v, fmt...);
    dsm_assert(r.ec == std::errc(), "number does not fit its buffer");
    out.append(buf, r.ptr);
}

} // anonymous namespace

std::string
jsonEscape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::element()
{
    if (_have_key) {
        // A key was just emitted; this element is its value.
        _have_key = false;
        return;
    }
    if (!_first.empty()) {
        if (!_first.back())
            _out += ',';
        _first.back() = false;
    }
}

void
JsonWriter::beginObject()
{
    element();
    _out += '{';
    _first.push_back(true);
}

void
JsonWriter::endObject()
{
    dsm_assert(!_first.empty() && !_have_key, "mismatched endObject");
    _out += '}';
    _first.pop_back();
}

void
JsonWriter::beginArray()
{
    element();
    _out += '[';
    _first.push_back(true);
}

void
JsonWriter::endArray()
{
    dsm_assert(!_first.empty() && !_have_key, "mismatched endArray");
    _out += ']';
    _first.pop_back();
}

void
JsonWriter::key(std::string_view k)
{
    dsm_assert(!_have_key, "two keys in a row: %.*s",
               static_cast<int>(k.size()), k.data());
    element();
    _out += '"';
    appendEscaped(_out, k);
    _out += "\":";
    _have_key = true;
}

void
JsonWriter::value(const std::string &s)
{
    element();
    _out += '"';
    appendEscaped(_out, s);
    _out += '"';
}

void
JsonWriter::value(const char *s)
{
    value(std::string(s));
}

void
JsonWriter::value(double d)
{
    element();
    // JSON has no NaN/Inf; clamp to null-like zero.
    if (!std::isfinite(d))
        d = 0.0;
    appendNumber(_out, d, std::chars_format::general, 10);
}

void
JsonWriter::value(std::uint64_t v)
{
    element();
    appendNumber(_out, v);
}

void
JsonWriter::value(std::int64_t v)
{
    element();
    appendNumber(_out, v);
}

void
JsonWriter::value(int v)
{
    value(static_cast<std::int64_t>(v));
}

void
JsonWriter::value(unsigned v)
{
    value(static_cast<std::uint64_t>(v));
}

void
JsonWriter::value(bool b)
{
    element();
    _out += b ? "true" : "false";
}

void
JsonWriter::raw(const std::string &json)
{
    element();
    _out += json;
}

const JsonValue *
JsonValue::find(const std::string &key) const
{
    if (kind != Kind::OBJECT)
        return nullptr;
    for (const auto &[k, v] : object)
        if (k == key)
            return &v;
    return nullptr;
}

double
JsonValue::num(const std::string &key, double fallback) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->kind == Kind::NUMBER ? v->number : fallback;
}

std::string
JsonValue::str(const std::string &key) const
{
    const JsonValue *v = find(key);
    return v != nullptr && v->kind == Kind::STRING ? v->string : "";
}

namespace {

/** Recursive-descent parser over one in-memory document. */
class Parser
{
  public:
    explicit Parser(const std::string &text) : _text(text) {}

    bool
    run(JsonValue *out, std::string *err)
    {
        bool ok = parseValue(out) && (skipWs(), _pos == _text.size());
        if (!ok && err != nullptr) {
            *err = _err.empty() ? "trailing characters" : _err;
            *err += " at offset " + std::to_string(_pos);
        }
        return ok;
    }

  private:
    const std::string &_text;
    std::size_t _pos = 0;
    std::string _err;

    bool
    fail(const std::string &what)
    {
        if (_err.empty())
            _err = what;
        return false;
    }

    void
    skipWs()
    {
        while (_pos < _text.size() &&
               std::isspace(static_cast<unsigned char>(_text[_pos])))
            ++_pos;
    }

    bool
    consume(char c)
    {
        skipWs();
        if (_pos >= _text.size() || _text[_pos] != c)
            return fail(std::string("expected '") + c + "'");
        ++_pos;
        return true;
    }

    bool
    literal(const char *word, std::size_t len)
    {
        if (_text.compare(_pos, len, word) != 0)
            return fail(std::string("bad literal, wanted ") + word);
        _pos += len;
        return true;
    }

    bool
    parseString(std::string *out)
    {
        if (!consume('"'))
            return false;
        out->clear();
        while (_pos < _text.size()) {
            char c = _text[_pos++];
            if (c == '"')
                return true;
            if (c == '\\') {
                if (_pos >= _text.size())
                    break;
                char e = _text[_pos++];
                switch (e) {
                  case '"': out->push_back('"'); break;
                  case '\\': out->push_back('\\'); break;
                  case '/': out->push_back('/'); break;
                  case 'b': out->push_back('\b'); break;
                  case 'f': out->push_back('\f'); break;
                  case 'n': out->push_back('\n'); break;
                  case 'r': out->push_back('\r'); break;
                  case 't': out->push_back('\t'); break;
                  case 'u': {
                    if (_pos + 4 > _text.size())
                        return fail("truncated \\u escape");
                    // The emitters only escape control characters, so
                    // a raw byte is a faithful enough decoding.
                    unsigned long cp = std::strtoul(
                        _text.substr(_pos, 4).c_str(), nullptr, 16);
                    out->push_back(static_cast<char>(cp & 0xff));
                    _pos += 4;
                    break;
                  }
                  default:
                    return fail("bad escape");
                }
            } else {
                out->push_back(c);
            }
        }
        return fail("unterminated string");
    }

    bool
    parseNumber(JsonValue *out)
    {
        const char *start = _text.c_str() + _pos;
        char *end = nullptr;
        double v = std::strtod(start, &end);
        if (end == start)
            return fail("expected a value");
        out->kind = JsonValue::Kind::NUMBER;
        out->number = v;
        _pos += static_cast<std::size_t>(end - start);
        return true;
    }

    bool
    parseArray(JsonValue *out)
    {
        if (!consume('['))
            return false;
        out->kind = JsonValue::Kind::ARRAY;
        skipWs();
        if (_pos < _text.size() && _text[_pos] == ']') {
            ++_pos;
            return true;
        }
        while (true) {
            JsonValue elem;
            if (!parseValue(&elem))
                return false;
            out->array.push_back(std::move(elem));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated array");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume(']');
        }
    }

    bool
    parseObject(JsonValue *out)
    {
        if (!consume('{'))
            return false;
        out->kind = JsonValue::Kind::OBJECT;
        skipWs();
        if (_pos < _text.size() && _text[_pos] == '}') {
            ++_pos;
            return true;
        }
        while (true) {
            std::string key;
            skipWs();
            if (!parseString(&key) || !consume(':'))
                return false;
            JsonValue val;
            if (!parseValue(&val))
                return false;
            out->object.emplace_back(std::move(key), std::move(val));
            skipWs();
            if (_pos >= _text.size())
                return fail("unterminated object");
            if (_text[_pos] == ',') {
                ++_pos;
                continue;
            }
            return consume('}');
        }
    }

    bool
    parseValue(JsonValue *out)
    {
        skipWs();
        if (_pos >= _text.size())
            return fail("unexpected end of input");
        char c = _text[_pos];
        switch (c) {
          case '{': return parseObject(out);
          case '[': return parseArray(out);
          case '"':
            out->kind = JsonValue::Kind::STRING;
            return parseString(&out->string);
          case 't':
            out->kind = JsonValue::Kind::BOOL;
            out->boolean = true;
            return literal("true", 4);
          case 'f':
            out->kind = JsonValue::Kind::BOOL;
            out->boolean = false;
            return literal("false", 5);
          case 'n':
            out->kind = JsonValue::Kind::NUL;
            return literal("null", 4);
          default:
            return parseNumber(out);
        }
    }
};

} // anonymous namespace

bool
parseJson(const std::string &text, JsonValue *out, std::string *err)
{
    return Parser(text).run(out, err);
}

} // namespace dsm
